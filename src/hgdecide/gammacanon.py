"""Canonical closed form of a balanced instance's limit.

A balanced shift quotient r(k) = q(k)/p(k) has a finite nonzero limit
prod_{k>=0} r(k) equal to a ratio of gamma values at the negated roots of
p and q (classical infinite-product identity).  Over an imaginary
quadratic field every conjugate argument pair Gamma(rho + w)Gamma(rho - w),
w = b*sqrt(-m), carried as the record (rho, b, -m), collapses, through the
translation and reflection identities, to an explicit algebraic multiple
of

    pi / (b*sqrt(m) * sinh(pi*b*sqrt(m))) = (pi / (b*sqrt(m))) * 2x^e / (x^2e - 1)
    pi / cosh(pi*b*sqrt(m))               = pi * 2x^e / (x^2e + 1)

(integer and half-integer rational part), with x = exp(pi*sqrt(m)/D) and
e = b*D, so the whole limit takes the normal form

    theta * pi**ell * f(x) / g(x),

with theta a rational or a rational times sqrt(m), ell an integer, and f, g coprime primitive
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
`enclosure` kernels, the rung that `enclosure.compare` asks for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import DyadicInterval
from .enclosure import exp_interval, pi_interval, root_int_interval
from .errors import DecideError, PrecisionExceeded, UnsupportedInstance
from .exactnum import format_rat, is_half_integer
from .polys import IntPoly, RootEntry, cyclotomic
from .sequence import classify

# largest e in the x^e and x^(2e) +- 1 factors that canonicalize builds (a
# pair Gamma(rho + w)Gamma(rho - w), w = b*sqrt(-m), has e = b*D); the
# expanded f and g are dense, so a larger e is refused as unsupported
X_POWER_CAP = 1024

# a conjugate pair Gamma(rho + w)*Gamma(rho - w), w = b*sqrt(d), b > 0
Pair = tuple[Fraction, Fraction, int]


@dataclass(frozen=True)
class GammaProduct:
    """prod Gamma(num)/prod Gamma(den): rational arguments and conjugate
    pairs (rho, b, d), each repeated with its multiplicity."""

    num_rat: tuple[Fraction, ...]
    den_rat: tuple[Fraction, ...]
    num_pairs: tuple[Pair, ...]
    den_pairs: tuple[Pair, ...]


def limit_as_gamma(
    p: IntPoly, q: IntPoly, roots_p: tuple[RootEntry, ...], roots_q: tuple[RootEntry, ...]
) -> GammaProduct:
    """Express prod_{k>=0} q(k)/p(k) as a gamma ratio.

    Numerator arguments are the negated roots of p, denominator arguments
    the negated roots of q; a root a + b*sqrt(d) with b > 0 gives the pair
    (-a, b, d), and its conjugate adds nothing.  Requires the balanced
    class; a rational argument that is a nonpositive integer (a root of q
    at 0, 1, 2, ..., which `decide` handles before as a zero tail) is
    unsupported.
    """
    if not classify(p, q).is_balanced:
        raise UnsupportedInstance("limit_as_gamma needs a balanced shift quotient")

    def negate_all(roots: tuple[RootEntry, ...]):
        rat, pairs = [], []
        for e in roots:
            if isinstance(e.root, Fraction):
                if e.root.denominator == 1 and e.root >= 0:
                    raise UnsupportedInstance(f"gamma argument {-e.root} is a nonpositive integer")
                rat += [-e.root] * e.mult
            elif e.root.b > 0:
                pairs += [(-e.root.a, e.root.b, e.root.d)] * e.mult
        return tuple(rat), tuple(pairs)

    (num_rat, num_pairs), (den_rat, den_pairs) = negate_all(roots_p), negate_all(roots_q)
    return GammaProduct(num_rat, den_rat, num_pairs, den_pairs)


# ---------------------------------------------------------------------------
# Translation steps and factorials
# ---------------------------------------------------------------------------


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


# bits either side of `integer_gamma_ratio` may have before it is multiplied
GAMMA_RATIO_BITS = 2**18


def integer_gamma_ratio(num_args, den_args) -> Fraction:
    """prod Gamma(a) / prod Gamma(b) for integer arguments a, b >= 1.

    The sorted arguments are paired, an unpaired one with 1, and
    Gamma(a)/Gamma(b) is the rising product over range(min, max) on the
    side of the larger.  k factors below c have at most k * bit_length(c)
    bits, so a side past GAMMA_RATIO_BITS raises PrecisionExceeded before
    anything is multiplied.
    """
    for a in (*num_args, *den_args):
        if Fraction(a).denominator != 1 or a < 1:
            raise DecideError(f"rational gamma argument {a} out of range")
    sides = ([], [])  # the ranges multiplied into the numerator, the denominator
    for a, b in itertools.zip_longest(sorted(num_args), sorted(den_args), fillvalue=1):
        sides[a < b].append(range(int(min(a, b)), int(max(a, b))))
    bits = max(sum((r.stop - r.start) * r.stop.bit_length() for r in side) for side in sides)
    if bits > GAMMA_RATIO_BITS:
        raise PrecisionExceeded("a rational gamma ratio too large to multiply out")
    num, den = (math.prod(math.perm(r.stop - 1, r.stop - r.start) for r in side) for side in sides)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Canonical constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalConstant:
    """theta * pi**ell * f(x)/g(x) with x = exp(pi*sqrt(m)/D).

    theta = theta_a + theta_b*sqrt(m), real.  base_trivial marks the
    all-rational case (value theta * pi**ell, f = g = 1).  Only
    `canonicalize` builds one (`scale` copies it), and it holds the
    invariants: theta != 0, m >= 1 with sqrt(1) folded into theta_a,
    D in {1, 2}, and f, g coprime and primitive with positive leads.
    """

    theta_a: Fraction
    theta_b: Fraction
    ell: int
    f: IntPoly
    g: IntPoly
    m: int
    D: int
    base_trivial: bool

    def limit_enclosure(self, prec: int) -> DyadicInterval:
        """Enclosure of the value, worked at prec + 32 bits: theta, then
        pi**ell, then x once, then f(x) and g(x) by Horner."""
        w = prec + 32
        out = DyadicInterval.from_fraction(self.theta_a, w)
        if self.theta_b:
            out = out.add(root_int_interval(self.m, 2, w).scale(self.theta_b, w), w)
        if self.ell:
            out = out.mul(pi_interval(w).pow_int(self.ell, w), w)
        if not self.base_trivial:
            root = pi_interval(w).mul(root_int_interval(self.m, 2, w), w)
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
            "theta": [format_rat(self.theta_a), format_rat(self.theta_b)],
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


def canonicalize(gp: GammaProduct) -> CanonicalConstant:
    """Collapse a gamma ratio of rational arguments and conjugate pairs
    into the canonical tuple.

    Rational arguments become exact factorials in theta.  The pairs must
    all live in one imaginary quadratic field Q(sqrt(-m)); any other
    field class raises UnsupportedInstance (those instances belong to the
    conditional path).  Each pair routes through the translation and
    reflection identities: the translation factor A is the norm
    prod (c + b^2 m)^(+-1) over `translation_squares`, and an integer-rho
    pair brings 1/sqrt(m) = sqrt(m)/m, so theta is a rational times
    sqrt(m)^k with k the net count of integer-rho pairs.

    Each pair contributes x^e on its own side of f/g and x^2e -+ 1 on the
    other, as the exponents of x and of each cyclotomic Phi_d; f and g are
    the factors left with positive and negative exponent, multiplied out.
    Every factor is monic, so f and g come out coprime, primitive and
    monic with no gcd or content step, and theta needs no correction.
    """
    pairs = gp.num_pairs + gp.den_pairs
    ds = {d for _, _, d in pairs}
    if len(ds) > 1:
        raise UnsupportedInstance(f"roots span several quadratic fields {sorted(ds)}")
    if ds and next(iter(ds)) > 0:
        raise UnsupportedInstance("roots lie in a real quadratic field")

    theta = integer_gamma_ratio(gp.num_rat, gp.den_rat)
    if not ds:
        return CanonicalConstant(theta, Fraction(0), 0, IntPoly.of(1), IntPoly.of(1), 1, 1, True)

    m = -ds.pop()
    D = max(b.denominator for _, b, _ in pairs)
    if D > 2:
        raise DecideError("pair coordinates outside the half-integer lattice")
    e_max = max(int(b * D) for _, b, _ in pairs)
    if e_max > X_POWER_CAP:
        raise UnsupportedInstance(
            f"pair exponent {e_max} exceeds the cap {X_POWER_CAP} on x^e in the canonical form"
        )

    ell = k = 0
    x_exp = 0  # exponent of x in f/g
    cyc: dict[int, int] = {}  # exponent of cyclotomic(n) in f/g
    for side, side_pairs in ((1, gp.num_pairs), (-1, gp.den_pairs)):
        for rho, b, _ in side_pairs:
            e = int(b * D)
            squares, rising = translation_squares(rho)
            norm = math.prod((c + b * b * m for c in squares), start=Fraction(1))
            coef = 2 * (norm if rising else 1 / norm)
            if rho.denominator == 1:
                # A * pi * 2 x^e / (b sqrt(m) (x^{2e}-1)); 1/sqrt(m) = sqrt(m)/m
                coef /= b * m
                k += side
                phis = [n for n in range(1, 2 * e + 1) if (2 * e) % n == 0]
            else:
                # A * pi * 2 x^e / (x^{2e}+1)
                phis = [n for n in range(1, 4 * e + 1) if (4 * e) % n == 0 and (2 * e) % n]
            theta *= coef**side
            ell += side
            x_exp += side * e
            for n in phis:
                cyc[n] = cyc.get(n, 0) - side

    # sqrt(m)^k = m^(k // 2) * sqrt(m)^(k % 2); sqrt(1) folds into theta_a
    theta *= Fraction(m) ** (k // 2)
    theta_a, theta_b = (Fraction(0), theta) if k % 2 and m != 1 else (theta, Fraction(0))
    f = _cyclotomic_product(x_exp, {n: c for n, c in cyc.items() if c > 0})
    g = _cyclotomic_product(-x_exp, {n: -c for n, c in cyc.items() if c < 0})
    return CanonicalConstant(theta_a, theta_b, ell, f, g, m, D, False)


def _cyclotomic_product(x_exp: int, powers: dict[int, int]) -> IntPoly:
    """x^max(x_exp, 0) * prod cyclotomic(n)^k over `powers`."""
    out = IntPoly.x_power(max(x_exp, 0))
    for n, k in sorted(powers.items()):
        for _ in range(k):
            out = cyclotomic(n) * out  # __mul__ skips the zeros of its left factor
    return out
