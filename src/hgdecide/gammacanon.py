"""Canonical closed form of a balanced instance's limit.

A balanced shift quotient r(k) = q(k)/p(k) has a finite nonzero limit
prod_{k>=0} r(k) equal to a ratio of gamma values at the negated roots of
p and q (classical infinite-product identity).  Over an imaginary
quadratic field every conjugate argument pair collapses, through the
translation and reflection identities, to an explicit algebraic multiple
of

    pi / (b*sqrt(m) * sinh(pi*b*sqrt(m)))     (integer rational part)
    pi / cosh(pi*b*sqrt(m))                   (half-integer rational part)

so the whole limit takes the normal form

    theta * pi**ell * f(x) / g(x),   x = exp(pi*sqrt(m)/D),

with theta in Q(sqrt(m)) real, ell an integer, and f, g coprime primitive
integer polynomials with positive leading coefficients.  The tuple is not
unique; the contract is the exact value identity, and equality decisions
never compare tuples structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enclosure import Exp, Expr, Pi, Rc, Sqrt
from .errors import DecideError, FieldMismatchError
from .exactnum import QuadElem, is_half_integer
from .polys import IntPoly, RootMultiset, poly_gcd
from .sequence import classify

GammaArg = Fraction | QuadElem


@dataclass(frozen=True)
class GammaProduct:
    """prod Gamma(num)/prod Gamma(den), argument multisets expanded."""

    num_args: tuple[GammaArg, ...]
    den_args: tuple[GammaArg, ...]
    prefactor: Fraction = Fraction(1)

    def __post_init__(self):
        if len(self.num_args) != len(self.den_args):
            raise DecideError("gamma product must have equal argument counts")
        for arg in self.num_args + self.den_args:
            if isinstance(arg, Fraction) and arg.denominator == 1 and arg <= 0:
                raise DecideError(f"gamma argument {arg} is a nonpositive integer")
        s_num = _arg_sum(self.num_args)
        s_den = _arg_sum(self.den_args)
        if s_num != s_den:
            raise DecideError("argument sums differ: shift quotient not balanced")


def _arg_sum(args) -> QuadElem | Fraction:
    total = Fraction(0)
    quad = {}
    for a in args:
        if isinstance(a, Fraction):
            total += a
        else:
            total += a.a
            quad[a.d] = quad.get(a.d, Fraction(0)) + a.b
    if any(v != 0 for v in quad.values()):
        raise DecideError("gamma arguments not conjugate-closed")
    return total


def limit_as_gamma(
    p: IntPoly, q: IntPoly, roots_p: RootMultiset, roots_q: RootMultiset
) -> GammaProduct:
    """Express prod_{k>=0} q(k)/p(k) as a gamma ratio.

    Numerator arguments are the negated roots of p, denominator arguments
    the negated roots of q.  Requires the balanced class and that no
    argument is a nonpositive integer (zero tails and invalid instances
    are handled before this point).
    """
    if not classify(p, q).is_balanced:
        raise DecideError("limit_as_gamma needs a balanced shift quotient")

    def negate_all(rm: RootMultiset):
        out = []
        for e in rm.entries:
            val = -e.root if isinstance(e.root, Fraction) else QuadElem(-e.root.a, -e.root.b, e.root.d)
            out.extend([val] * e.mult)
        return tuple(out)

    return GammaProduct(negate_all(roots_p), negate_all(roots_q))


# ---------------------------------------------------------------------------
# Pair products
# ---------------------------------------------------------------------------


class PairKind:
    INTEGER_RHO = "integer_rho"
    HALF_INTEGER_RHO = "half_integer_rho"


@dataclass(frozen=True)
class PairForm:
    """Gamma(rho+w)*Gamma(rho-w) = prefactor * pi * core(kind, b, m).

    core is 1/(b*sqrt(m)*sinh(pi*b*sqrt(m))) for integer rho and
    1/cosh(pi*b*sqrt(m)) for half-integer rho, with w = b*sqrt(-m).
    The algebraic prefactor is the exact product of the translation steps
    down to the base argument (w or 1/2 + w); for conjugate pairs it is
    rational.
    """

    kind: str
    rho: Fraction
    b: Fraction  # positive
    m: int  # |d|, positive squarefree
    prefactor: Fraction


def shift_to_base(arg: QuadElem) -> tuple[QuadElem, Fraction, QuadElem]:
    """Reduce Gamma(arg) to Gamma(base) by the factorial identities.

    Returns (A, base_rational_part, w) with Gamma(arg) = A * Gamma(rho0 + w),
    rho0 in {0, 1/2} and w = b*sqrt(d) the purely irrational part.  The
    rational part of arg must lie in (1/2)Z.
    """
    if arg.b == 0:
        raise DecideError("shift_to_base expects an irrational argument")
    if not is_half_integer(arg.a):
        raise DecideError(f"rational part {arg.a} not in (1/2)Z")
    w = QuadElem(Fraction(0), arg.b, arg.d)
    rho0 = Fraction(0) if arg.a.denominator == 1 else Fraction(1, 2)
    n = int(arg.a - rho0)
    one = QuadElem.rational(1, arg.d)
    a_quad = one
    if n > 0:
        for j in range(n):
            a_quad = a_quad * (w + (rho0 + j))
    elif n < 0:
        for j in range(1, -n + 1):
            a_quad = a_quad / (w + (rho0 - j))
    return a_quad, rho0, w


def pair_product(rho: Fraction, w: QuadElem) -> PairForm:
    """Closed form of Gamma(rho+w)*Gamma(rho-w) for imaginary quadratic w."""
    rho = Fraction(rho)
    if not is_half_integer(rho):
        raise DecideError(f"rho = {rho} not in (1/2)Z")
    if w.b == 0 or w.a != 0:
        raise DecideError("w must be purely irrational")
    if w.d >= 0:
        raise DecideError("pair_product handles imaginary quadratic fields only")
    b = abs(w.b)
    m = -w.d
    wsq = w.b * w.b * w.d  # w^2, rational and negative
    if rho.denominator == 1:
        kind = PairKind.INTEGER_RHO
        n = int(rho)
        pref = Fraction(1)
        if n > 0:
            for j in range(n):
                pref *= Fraction(j * j) - wsq
        elif n < 0:
            for j in range(1, -n + 1):
                pref /= Fraction(j * j) - wsq
    else:
        kind = PairKind.HALF_INTEGER_RHO
        n = int(rho - Fraction(1, 2))
        pref = Fraction(1)
        if n > 0:
            for j in range(n):
                pref *= (Fraction(2 * j + 1, 2)) ** 2 - wsq
        elif n < 0:
            for j in range(1, -n + 1):
                pref /= (Fraction(2 * j - 1, 2)) ** 2 - wsq
    return PairForm(kind, rho, b, m, pref)


def pair_value_expr(form: PairForm) -> Expr:
    """Enclosure expression of the pair value (for audits and tests)."""
    root = Pi() * Sqrt(form.m) * Rc(form.b)
    y = Exp(root)
    if form.kind == PairKind.INTEGER_RHO:
        core = (2 * y) / (Rc(form.b) * Sqrt(form.m) * (y * y - 1))
    else:
        core = (2 * y) / (y * y + 1)
    return Rc(form.prefactor) * Pi() * core


# ---------------------------------------------------------------------------
# Canonical constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalConstant:
    """theta * pi**ell * f(x)/g(x) with x = exp(pi*sqrt(m)/D).

    theta = theta_a + theta_b*sqrt(m), real.  base_trivial marks the
    all-rational case (value theta * pi**ell, f = g = 1).
    """

    theta_a: Fraction
    theta_b: Fraction
    ell: int
    f: IntPoly
    g: IntPoly
    m: int
    D: int
    base_trivial: bool

    def __post_init__(self):
        if self.theta_a == 0 and self.theta_b == 0:
            raise DecideError("theta must be nonzero")
        if self.m < 1:
            raise DecideError("base radicand must be positive")
        if self.m == 1 and self.theta_b != 0:
            raise DecideError("sqrt(1) part must be folded into theta_a")
        if self.D not in (1, 2):
            raise DecideError("D must be 1 or 2")
        if self.base_trivial:
            if self.f != IntPoly.of(1) or self.g != IntPoly.of(1) or self.theta_b != 0:
                raise DecideError("trivial base requires f = g = 1 and rational theta")
        else:
            if self.f.is_zero or self.g.is_zero:
                raise DecideError("f, g must be nonzero")
            if self.f.lead < 0 or self.g.lead < 0:
                raise DecideError("f, g must have positive leading coefficients")
            if self.f.content() != 1 or self.g.content() != 1:
                raise DecideError("f, g must be primitive")
            if poly_gcd(self.f, self.g).degree > 0:
                raise DecideError("f, g must be coprime")

    def x_expr(self) -> Expr:
        return Exp(Pi() * Sqrt(self.m) * Rc(Fraction(1, self.D)))

    def theta_expr(self) -> Expr:
        out: Expr = Rc(self.theta_a)
        if self.theta_b:
            out = out + Rc(self.theta_b) * Sqrt(self.m)
        return out

    def value_expr(self) -> Expr:
        out = self.theta_expr()
        if self.ell:
            out = out * Pi() ** self.ell
        if not self.base_trivial:
            x = self.x_expr()
            fx = _poly_expr(self.f, x)
            gx = _poly_expr(self.g, x)
            out = out * fx / gx
        return out

    def scale(self, c: Fraction) -> "CanonicalConstant":
        """Constant multiplied by an exact nonzero rational."""
        c = Fraction(c)
        if c == 0:
            raise DecideError("scaling a canonical constant by zero")
        return CanonicalConstant(
            self.theta_a * c, self.theta_b * c, self.ell, self.f, self.g,
            self.m, self.D, self.base_trivial,
        )

    def describe(self) -> dict:
        return {
            "theta": [str(self.theta_a), str(self.theta_b)],
            "ell": self.ell,
            "f": list(self.f.coeffs),
            "g": list(self.g.coeffs),
            "m": self.m,
            "D": self.D,
            "base_trivial": self.base_trivial,
        }


def _poly_expr(f: IntPoly, x: Expr) -> Expr:
    out: Expr = Rc(Fraction(f.coeffs[0]))
    for i, c in enumerate(f.coeffs[1:], start=1):
        if c:
            out = out + Rc(Fraction(c)) * x**i
    return out


class _Theta:
    """Accumulator for theta = a + b*sqrt(m); folds sqrt(1) immediately."""

    def __init__(self, m: int):
        self.m = m
        self.a = Fraction(1)
        self.b = Fraction(0)

    def mul(self, x: Fraction, y: Fraction = Fraction(0)):
        """theta *= x + y*sqrt(m)."""
        if self.m == 1:
            x = x + y
            y = Fraction(0)
        a = self.a * x + self.b * y * self.m
        b = self.a * y + self.b * x
        self.a, self.b = a, b

    def div(self, x: Fraction, y: Fraction = Fraction(0)):
        if self.m == 1:
            x = x + y
            y = Fraction(0)
        norm = x * x - y * y * self.m
        if norm == 0:
            raise ZeroDivisionError("theta division by zero")
        self.mul(x / norm, -y / norm)


def canonicalize(gp: GammaProduct, prefactor: Fraction = Fraction(1)) -> CanonicalConstant:
    """Collapse a conjugate-closed gamma ratio into the canonical tuple.

    Rational arguments become exact factorials in theta.  Irrational
    arguments must all live in one imaginary quadratic field with rational
    parts in (1/2)Z; conjugate pairs route through the translation and
    reflection identities.  Raises FieldMismatchError when several d values
    appear (those instances belong to the conditional path).
    """
    if prefactor == 0:
        raise DecideError("zero prefactor")
    num_rat, num_quad = _split_args(gp.num_args)
    den_rat, den_quad = _split_args(gp.den_args)

    ds = {a.d for a in num_quad} | {a.d for a in den_quad}
    if len(ds) > 1:
        raise FieldMismatchError(f"mixed quadratic fields {sorted(ds)}")
    if ds and next(iter(ds)) >= 0:
        raise FieldMismatchError("real quadratic arguments need the conditional path")

    if not ds:
        theta = Fraction(prefactor) * gp.prefactor
        for v in num_rat:
            theta *= math.factorial(int(v) - 1)
        for v in den_rat:
            theta /= math.factorial(int(v) - 1)
        return CanonicalConstant(
            theta, Fraction(0), 0, IntPoly.of(1), IntPoly.of(1), 1, 1, True
        )

    d = next(iter(ds))
    m = -d
    num_pairs = [pair_product(rho, w) for rho, w in _conjugate_pairs(num_quad)]
    den_pairs = [pair_product(rho, w) for rho, w in _conjugate_pairs(den_quad)]

    denominators = {(p.b).denominator for p in num_pairs + den_pairs}
    D = 2 if 2 in denominators else 1
    if not denominators <= {1, 2}:
        raise DecideError("pair coordinates outside the half-integer lattice")

    theta = _Theta(m)
    theta.mul(Fraction(prefactor) * gp.prefactor)
    for v in num_rat:
        theta.mul(Fraction(math.factorial(int(v) - 1)))
    for v in den_rat:
        theta.div(Fraction(math.factorial(int(v) - 1)))

    ell = 0
    f = IntPoly.of(1)
    g = IntPoly.of(1)
    for form in num_pairs:
        e = int(form.b * D)
        ell += 1
        if form.kind == PairKind.INTEGER_RHO:
            # A * pi * 2 x^e / (b sqrt(m) (x^{2e}-1)); 1/sqrt(m) = sqrt(m)/m
            theta.mul(Fraction(0), form.prefactor * 2 / (form.b * m))
            f = f * IntPoly.x_power(e)
            g = g * (IntPoly.x_power(2 * e) - IntPoly.of(1))
        else:
            theta.mul(form.prefactor * 2)
            f = f * IntPoly.x_power(e)
            g = g * (IntPoly.x_power(2 * e) + IntPoly.of(1))
    for form in den_pairs:
        e = int(form.b * D)
        ell -= 1
        if form.kind == PairKind.INTEGER_RHO:
            theta.div(Fraction(0), form.prefactor * 2 / (form.b * m))
            f = f * (IntPoly.x_power(2 * e) - IntPoly.of(1))
            g = g * IntPoly.x_power(e)
        else:
            theta.div(form.prefactor * 2)
            f = f * (IntPoly.x_power(2 * e) + IntPoly.of(1))
            g = g * IntPoly.x_power(e)

    common = poly_gcd(f, g)
    if common.degree >= 1:
        f = f.exact_div(common)
        g = g.exact_div(common)
    fc = f.content() * (1 if f.lead > 0 else -1)
    gc = g.content() * (1 if g.lead > 0 else -1)
    f = IntPoly(tuple(c // fc for c in f.coeffs))
    g = IntPoly(tuple(c // gc for c in g.coeffs))
    theta.mul(Fraction(fc, gc))

    return CanonicalConstant(theta.a, theta.b, ell, f, g, m, D, False)


def _split_args(args):
    rat, quad = [], []
    for a in args:
        if isinstance(a, Fraction):
            if a.denominator != 1 or a < 1:
                raise DecideError(f"rational gamma argument {a} out of range")
            rat.append(a)
        elif isinstance(a, QuadElem):
            if a.b == 0:
                raise DecideError("rational argument disguised as quadratic")
            if not is_half_integer(a.a):
                raise DecideError(f"rational part {a.a} not in (1/2)Z")
            quad.append(a)
        else:
            raise DecideError(f"unsupported gamma argument {a!r}")
    return rat, quad


def _conjugate_pairs(args: list[QuadElem]) -> list[tuple[Fraction, QuadElem]]:
    """Group a conjugate-closed multiset into (rho, w) with w = |b|*sqrt(d)."""
    pool = list(args)
    pairs = []
    while pool:
        x = pool.pop()
        try:
            pool.remove(x.conjugate())
        except ValueError:
            raise DecideError(f"argument {x} has no conjugate partner") from None
        pairs.append((x.a, QuadElem(Fraction(0), abs(x.b), x.d)))
    return sorted(pairs, key=lambda t: (t[0], t[1].b))


# ---------------------------------------------------------------------------
# Tail envelope for partial products
# ---------------------------------------------------------------------------


def tail_log_bound(p: IntPoly, q: IntPoly, k: int) -> Fraction:
    """Bound on |log prod_{j>k} r(j)| for a balanced quotient.

    With h = q - p (degree <= deg p - 2 in the balanced case) and
    H = sum |h_i|, P = sum of |subleading p_i|:

        |p(j)| >= j^deg/2        for j >= 2P,
        |h(j)| <= H j^(deg-2)    for j >= 1,

    so |r(j) - 1| <= 2H/j^2 and |log r(j)| <= 4H/j^2 once 2H/j^2 <= 1/2.
    Summing, |log tail| <= 4H/k for k >= max(2P, 2*sqrt(H), 1).
    """
    if not classify(p, q).is_balanced:
        raise DecideError("tail bound requires the balanced class")
    h = q - p
    big_h = sum(abs(c) for c in h.coeffs)
    if big_h == 0:
        return Fraction(0)
    big_p = sum(abs(c) for c in p.coeffs[:-1])
    threshold = max(1, 2 * big_p, math.isqrt(4 * big_h) + 1)
    if k < threshold:
        raise DecideError(f"tail bound valid only for k >= {threshold}")
    return Fraction(4 * big_h, k)
