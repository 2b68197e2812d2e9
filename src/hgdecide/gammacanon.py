"""Canonical closed form of a balanced instance's limit.

A balanced shift quotient r(k) = q(k)/p(k) has a finite nonzero limit
prod_{k>=0} r(k) equal to a ratio of gamma values at the negated roots of
p and q (classical infinite-product identity).  Over an imaginary
quadratic field every conjugate argument pair collapses, through the
translation and reflection identities, to an explicit algebraic multiple
of

    pi / (b*sqrt(m) * sinh(pi*b*sqrt(m))) = (pi / (b*sqrt(m))) * 2x^e / (x^2e - 1)
    pi / cosh(pi*b*sqrt(m))               = pi * 2x^e / (x^2e + 1)

(integer and half-integer rational part), with x = exp(pi*sqrt(m)/D) and
e = b*D, so the whole limit takes the normal form

    theta * pi**ell * f(x) / g(x),

with theta in Q(sqrt(m)) real, ell an integer, and f, g coprime primitive
integer polynomials with positive leading coefficients.

`canonicalize` never divides polynomials.  It keeps f/g factored as a
power of x times cyclotomic polynomials, x^2e - 1 = prod_{d | 2e} Phi_d
and x^2e + 1 = prod_{d | 4e, d not | 2e} Phi_d, cancels by subtracting
exponents and expands what is left.  x and the Phi_d are distinct monic
irreducibles, so the cancelled f and g are the unique coprime, monic
(hence primitive, positive-lead) pair for the quotient, the same tuple a
gcd over Q followed by content normalisation gives, so certificates
carry the same bytes.  A value still has other tuples (D = 2 with f and
g in x^2, for one); the contract is the exact value identity, and
equality decisions never compare tuples structurally.

`CanonicalConstant.limit_enclosure` encloses the value straight from the
`enclosure` kernels, the rung that `equality.compare` asks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import DyadicInterval
from .enclosure import exp_interval, pi_interval, sqrt_int_interval
from .errors import DecideError, FieldMismatchError, UnsupportedInstance
from .exactnum import QuadElem, is_half_integer
from .numutil import divisors
from .polys import IntPoly, RootMultiset, coprime, cyclotomic
from .sequence import classify

GammaArg = Fraction | QuadElem

# largest e in the x^e and x^(2e) +- 1 factors that canonicalize builds (a
# pair Gamma(rho + w)Gamma(rho - w), w = b*sqrt(-m), has e = b*D); the
# expanded f and g are dense, so a larger e is refused as unsupported
X_POWER_CAP = 1024


@dataclass(frozen=True)
class GammaProduct:
    """prod Gamma(num)/prod Gamma(den), argument multisets expanded."""

    num_args: tuple[GammaArg, ...]
    den_args: tuple[GammaArg, ...]

    def __post_init__(self):
        if len(self.num_args) != len(self.den_args):
            raise DecideError("gamma product must have equal argument counts")
        for arg in self.num_args + self.den_args:
            if isinstance(arg, Fraction) and arg.denominator == 1 and arg <= 0:
                raise UnsupportedInstance(f"gamma argument {arg} is a nonpositive integer")
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
        raise UnsupportedInstance("limit_as_gamma needs a balanced shift quotient")

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


def translation_squares(rho: Fraction) -> tuple[tuple[Fraction, ...], bool]:
    """Translation factor of Gamma(rho+w)*Gamma(rho-w) down to its base.

    Gamma(rho+w)*Gamma(rho-w) = prod_j (c_j - w^2)^(+-1) times the same
    product at rho0 = 0 (integer rho) or rho0 = 1/2 (half-integer rho).
    Returns the rational squares c_j (j^2 or ((2j+1)/2)^2, one per step
    between rho0 and rho, in increasing j) and True when the factors
    multiply (rho above rho0) or False when they divide.
    """
    rho = Fraction(rho)
    if not is_half_integer(rho):
        raise DecideError(f"rho = {rho} not in (1/2)Z")
    if rho.denominator == 1:
        n = int(rho)
        js = range(n) if n > 0 else range(1, -n + 1)
        squares = tuple(Fraction(j * j) for j in js)
    else:
        n = int(rho - Fraction(1, 2))
        squares = tuple(Fraction(2 * j + 1, 2) ** 2 for j in range(abs(n)))
    return squares, n >= 0


def integer_gamma_ratio(num_args, den_args) -> Fraction:
    """prod Gamma(a) / prod Gamma(b) for integer arguments a, b >= 1."""
    for a in (*num_args, *den_args):
        if Fraction(a).denominator != 1 or a < 1:
            raise DecideError(f"rational gamma argument {a} out of range")
    return Fraction(
        math.prod(math.factorial(int(a) - 1) for a in num_args),
        math.prod(math.factorial(int(b) - 1) for b in den_args),
    )


def pair_product(rho: Fraction, w: QuadElem) -> PairForm:
    """Closed form of Gamma(rho+w)*Gamma(rho-w) for imaginary quadratic w."""
    rho = Fraction(rho)
    if w.b == 0 or w.a != 0:
        raise DecideError("w must be purely irrational")
    if w.d >= 0:
        raise DecideError("pair_product handles imaginary quadratic fields only")
    squares, rising = translation_squares(rho)
    wsq = w.b * w.b * w.d  # w^2, rational and negative
    pref = Fraction(1)
    for c in squares:
        pref = pref * (c - wsq) if rising else pref / (c - wsq)
    kind = PairKind.INTEGER_RHO if rho.denominator == 1 else PairKind.HALF_INTEGER_RHO
    return PairForm(kind, rho, abs(w.b), -w.d, pref)


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
            if not coprime(self.f, self.g):
                raise DecideError("f, g must be coprime")

    def limit_enclosure(self, prec: int) -> DyadicInterval:
        """Enclosure of the value, worked at prec + 32 bits: theta, then
        pi**ell, then x once, then f(x) and g(x) by Horner."""
        w = prec + 32
        out = DyadicInterval.from_fraction(self.theta_a, w)
        if self.theta_b:
            out = out.add(sqrt_int_interval(self.m, w).scale(self.theta_b, w), w)
        if self.ell:
            out = out.mul(pi_interval(w).pow_int(self.ell, w), w)
        if not self.base_trivial:
            root = pi_interval(w).mul(sqrt_int_interval(self.m, w), w)
            x = exp_interval(root.scale(Fraction(1, self.D), w), w)
            out = out.mul(_horner(self.f, x, w), w).div(_horner(self.g, x, w), w)
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


def _horner(f: IntPoly, x: DyadicInterval, prec: int) -> DyadicInterval:
    out = DyadicInterval.from_int(f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        out = out.mul(x, prec).add(DyadicInterval.from_int(c), prec)
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


def canonicalize(gp: GammaProduct) -> CanonicalConstant:
    """Collapse a conjugate-closed gamma ratio into the canonical tuple.

    Rational arguments become exact factorials in theta.  Irrational
    arguments must all live in one imaginary quadratic field with rational
    parts in (1/2)Z; conjugate pairs route through the translation and
    reflection identities.  Raises FieldMismatchError when several d values
    appear (those instances belong to the conditional path).

    Each pair contributes x^e on its own side of f/g and x^2e -+ 1 on the
    other, as the exponents of x and of each cyclotomic Phi_d; f and g are
    the factors left with positive and negative exponent, multiplied out.
    Every factor is monic, so f and g come out coprime, primitive and
    monic with no gcd or content step, and theta needs no correction.
    """
    num_rat, num_quad = _split_args(gp.num_args)
    den_rat, den_quad = _split_args(gp.den_args)

    ds = {a.d for a in num_quad} | {a.d for a in den_quad}
    if len(ds) > 1:
        raise FieldMismatchError(f"mixed quadratic fields {sorted(ds)}")
    if ds and next(iter(ds)) >= 0:
        raise FieldMismatchError("real quadratic arguments need the conditional path")

    rational = integer_gamma_ratio(num_rat, den_rat)
    if not ds:
        return CanonicalConstant(
            rational, Fraction(0), 0, IntPoly.of(1), IntPoly.of(1), 1, 1, True
        )

    d = next(iter(ds))
    m = -d
    num_pairs = [pair_product(rho, w) for rho, w in _conjugate_pairs(num_quad)]
    den_pairs = [pair_product(rho, w) for rho, w in _conjugate_pairs(den_quad)]

    denominators = {(p.b).denominator for p in num_pairs + den_pairs}
    D = 2 if 2 in denominators else 1
    if not denominators <= {1, 2}:
        raise DecideError("pair coordinates outside the half-integer lattice")
    e_max = max(int(p.b * D) for p in num_pairs + den_pairs)
    if e_max > X_POWER_CAP:
        raise UnsupportedInstance(
            f"pair exponent {e_max} exceeds the cap {X_POWER_CAP} on x^e in the canonical form"
        )

    theta = _Theta(m)
    theta.mul(rational)
    ell = 0
    x_exp = 0  # exponent of x in f/g
    cyc: dict[int, int] = {}  # exponent of cyclotomic(n) in f/g
    for forms, side in ((num_pairs, 1), (den_pairs, -1)):
        for form in forms:
            e = int(form.b * D)
            if form.kind == PairKind.INTEGER_RHO:
                # A * pi * 2 x^e / (b sqrt(m) (x^{2e}-1)); 1/sqrt(m) = sqrt(m)/m
                coef = (Fraction(0), form.prefactor * 2 / (form.b * m))
                phis = divisors(2 * e)
            else:
                # A * pi * 2 x^e / (x^{2e}+1)
                coef = (form.prefactor * 2, Fraction(0))
                phis = [n for n in divisors(4 * e) if (2 * e) % n]
            ell += side
            if side > 0:
                theta.mul(*coef)
            else:
                theta.div(*coef)
            x_exp += side * e
            for n in phis:
                cyc[n] = cyc.get(n, 0) - side

    f = _cyclotomic_product(x_exp, {n: k for n, k in cyc.items() if k > 0})
    g = _cyclotomic_product(-x_exp, {n: -k for n, k in cyc.items() if k < 0})
    return CanonicalConstant(theta.a, theta.b, ell, f, g, m, D, False)


def _cyclotomic_product(x_exp: int, powers: dict[int, int]) -> IntPoly:
    """x^max(x_exp, 0) * prod cyclotomic(n)^k over `powers`."""
    out = IntPoly.x_power(max(x_exp, 0))
    for n, k in sorted(powers.items()):
        for _ in range(k):
            out = cyclotomic(n) * out  # __mul__ skips the zeros of its left factor
    return out


def _split_args(args):
    rat, quad = [], []
    for a in args:
        if isinstance(a, Fraction):
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
