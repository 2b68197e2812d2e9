"""Polynomials over Z and Q: exact arithmetic, factorization into
irreducibles, quadratic-field root extraction, cyclotomics.

IntPoly/QPoly are dense ascending coefficient tuples.  Degree is capped at
32 and input coefficients at 256 bits; beyond the caps operations reject
with a diagnostic instead of risking unbounded searches.

Integer roots and irreducible factors come from one exact modular kernel
(Zassenhaus: factor mod a prime, Hensel-lift, recombine; Cantor and
Zassenhaus, Math. Comp. 36, 1981; von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 14-15).  Nothing here is numeric.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DecideError, UnsupportedInstance
from .numutil import euler_phi, factorize, is_probable_prime, perfect_power_root, squarefree_decompose

DEGREE_CAP = 32
COEFF_BIT_CAP = 256
_FACTOR_DEGREE_CAP = 16  # factor_monic's limit; recombination then tries <= 39202 subsets


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class _Poly:
    """Dense ascending coefficients in the ring `_ring`, zero = ().

    The arithmetic IntPoly and QPoly share; results are built with
    type(self)(...), so each keeps its own ring, and `*` takes only the
    scalars `_scalars` of that ring (an IntPoly times a Fraction is a
    TypeError, not a truncation).
    """

    coeffs: tuple
    _ring = int
    _scalars = (int,)

    def __post_init__(self):
        ring = self._ring
        object.__setattr__(self, "coeffs", _trim([ring(c) for c in self.coeffs]))

    @classmethod
    def of(cls, *coeffs):
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if self.is_zero:
            raise DecideError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def compose_linear(self, alpha, beta):
        """f(alpha + beta*x), by Horner's rule over coefficient lists; alpha
        and beta must be scalars of the ring, as for `*`."""
        if not (isinstance(alpha, self._scalars) and isinstance(beta, self._scalars)):
            raise TypeError(f"{type(self).__name__} substitutes only {self._scalars} values")
        out = []
        for c in reversed(self.coeffs):
            out = [alpha * a + beta * b for a, b in zip(out + [0], [0] + out)]
            out[0] += c
        return type(self)(out)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return type(self)(tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)(tuple(c * other for c in self.coeffs))
        if not isinstance(other, _Poly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return type(self)(tuple(out))

    __rmul__ = __mul__

    def derivative(self):
        return type(self)(tuple(i * c for i, c in enumerate(self.coeffs) if i))


class IntPoly(_Poly):
    """Integer polynomial, dense ascending coefficients, zero = ()."""

    coeffs: tuple[int, ...]

    @classmethod
    def x_power(cls, k: int) -> "IntPoly":
        return cls((0,) * k + (1,))

    def check_caps(self) -> "IntPoly":
        if self.degree > DEGREE_CAP:
            raise UnsupportedInstance(f"degree {self.degree} exceeds cap {DEGREE_CAP}")
        if any(abs(c).bit_length() > COEFF_BIT_CAP for c in self.coeffs):
            raise UnsupportedInstance(f"coefficient exceeds {COEFF_BIT_CAP} bits")
        return self

    def divides(self, other: "IntPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except DecideError:
            return False

    def exact_div(self, d: "IntPoly") -> "IntPoly":
        """Exact quotient over Z by integer long division; raises unless d
        divides self with an integral quotient.

        Each quotient coefficient is the one long division over Q would
        give, so a step whose top coefficient the lead does not divide
        proves the quotient over Q is not integral (or a remainder is left).
        """
        if d.is_zero:
            raise DecideError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = d.degree
        lead = d.coeffs[-1]
        low = [(j, c) for j, c in enumerate(d.coeffs[:-1]) if c]
        q = [0] * max(0, len(rem) - dd)
        for i in range(len(rem) - dd - 1, -1, -1):
            c, r = divmod(rem[i + dd], lead)
            if r:
                raise DecideError("inexact polynomial division")
            if c:
                q[i] = c
                for j, dc in low:
                    rem[i + j] -= c * dc
        if any(rem[:dd]):
            raise DecideError("inexact polynomial division")
        return IntPoly(tuple(q))

    def to_q(self) -> "QPoly":
        return QPoly(tuple(Fraction(c) for c in self.coeffs))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPoly":
        if self.is_zero:
            return self
        c = self.content()
        sign = 1 if self.lead > 0 else -1
        return IntPoly(tuple(x // (c * sign) for x in self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "IntPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if i == 0 else (f"{c}*x^{i}" if i > 1 else f"{c}*x"))
        return "IntPoly(" + " + ".join(parts) + ")"


class QPoly(_Poly):
    """Rational polynomial, dense ascending coefficients, zero = ()."""

    coeffs: tuple[Fraction, ...]
    _ring = Fraction
    _scalars = (int, Fraction)

    def divrem(self, d: "QPoly") -> tuple["QPoly", "QPoly"]:
        if d.is_zero:
            raise DecideError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = d.degree
        dl = d.lead
        q = [Fraction(0)] * max(0, len(rem) - dd)
        for i in range(len(rem) - dd - 1, -1, -1):
            c = rem[i + dd] / dl
            q[i] = c
            if c:
                for j, dc in enumerate(d.coeffs):
                    rem[i + j] -= c * dc
        return QPoly(tuple(q)), QPoly(tuple(rem[:dd]))

    def substitute_square(self) -> "QPoly":
        """g(x) -> g(x^2)."""
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return QPoly(tuple(out))

    def __repr__(self):
        return "QPoly(" + ", ".join(str(c) for c in self.coeffs) + ")"


# ---------------------------------------------------------------------------
# Named operations (spec surface)
# ---------------------------------------------------------------------------


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd over Q as its primitive integer representative with positive lead,
    by Euclid over Z on pseudo-remainders made primitive (Gauss's lemma)."""
    a, b = a.primitive_part(), b.primitive_part()
    while not b.is_zero:
        rem, db, lb = list(a.coeffs), b.degree, b.lead
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem.pop()
            rem = [r * lb for r in rem]
            for j in range(db):
                rem[i - db + j] -= c * b.coeffs[j]
        a, b = b, IntPoly(rem).primitive_part()
    return a


# ---------------------------------------------------------------------------
# (Z/m)[x]: ascending coefficient lists, entries in [0, m), no high zeros
# ---------------------------------------------------------------------------


def _trim_mod(a, m: int) -> list[int]:
    a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _add_mod(a: list[int], b: list[int], m: int, sign: int = 1) -> list[int]:
    """a + sign*b."""
    return _trim_mod([x + sign * y for x, y in itertools.zip_longest(a, b, fillvalue=0)], m)


def _mul_mod(polys, m: int) -> list[int]:
    """The product of the lists in `polys`."""
    out = [1]
    for b in polys:
        prod = [0] * (len(out) + len(b) - 1) if b else []
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        out = _trim_mod(prod, m)
    return out


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, whose lead is a unit mod m."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = q[i - db] = rem[i] * inv % m
        if c:
            for j in range(db):
                rem[i - db + j] -= c * b[j]
    return _trim_mod(q, m), _trim_mod(rem[:db], m)


def _pow_mod(a: list[int], e: int, f: list[int], m: int) -> list[int]:
    """a^e mod f."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod((out, a), m), f, m)[1]
        e >>= 1
        a = _divmod_mod(_mul_mod((a, a), m), f, m)[1] if e else a
    return out


def _gcd_mod(a: list[int], b: list[int], l: int) -> list[int]:
    """Monic gcd, l prime, a nonzero."""
    while b:
        a, b = b, _divmod_mod(a, b, l)[1]
    inv = pow(a[-1], -1, l)
    return [c * inv % l for c in a]


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def cyclotomic(n: int) -> IntPoly:
    """n-th cyclotomic polynomial via exact division of x^n - 1."""
    if n < 1:
        raise DecideError("cyclotomic index must be >= 1")
    num = IntPoly((-1,) + (0,) * (n - 1) + (1,))  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(cyclotomic(d))
    return num


def cyclotomic_index(f: IntPoly) -> int | None:
    """n with f == cyclotomic(n), if any."""
    if not f.is_monic or f.degree < 1:
        return None
    deg = f.degree
    # phi(n) = deg forces n <= enough small range; phi(n) >= sqrt(n/2)
    for n in range(1, 2 * deg * deg + 4):
        if euler_phi(n) == deg and cyclotomic(n) == f:
            return n
    return None


# ---------------------------------------------------------------------------
# Real-root counting (Sturm)
# ---------------------------------------------------------------------------


def sturm_sequence(f: QPoly) -> list[QPoly]:
    seq = [f, f.derivative()]
    while not seq[-1].is_zero and seq[-1].degree > 0:
        rem = seq[-2].divrem(seq[-1])[1]
        if rem.is_zero:
            break
        seq.append(-rem)
    return [p for p in seq if not p.is_zero]


def _sign_changes(vals: list[int]) -> int:
    signs = [v for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots_below(f: QPoly, bound: Fraction) -> int:
    """Number of distinct real roots in (-inf, bound)."""
    if f.is_zero:
        raise DecideError("zero polynomial")
    seq = sturm_sequence(f)
    at_minus_inf = [(1 if p.lead > 0 else -1) * (-1) ** p.degree for p in seq]
    at_bound = [(lambda v: (v > 0) - (v < 0))(p(bound)) for p in seq]
    return _sign_changes(at_minus_inf) - _sign_changes(at_bound)


def has_negative_real_root(f: QPoly) -> bool:
    # roots exactly at 0 do not count as negative
    if f.is_zero:
        return False
    while f.coeffs[0] == 0:
        f = QPoly(f.coeffs[1:])
    return count_real_roots_below(f, Fraction(0)) > 0


# ---------------------------------------------------------------------------
# Factorization into irreducibles (desk scale)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _squarefree_part(f: IntPoly) -> IntPoly:
    """f over gcd(f, f'): the same roots, each once."""
    g = poly_gcd(f, f.derivative())
    return f if g.degree < 1 else f.exact_div(g)


def _good_prime(f: IntPoly, df: IntPoly) -> int:
    """The least odd prime l dividing neither the lead nor the (nonzero)
    discriminant of f, squarefree with derivative df: f stays so mod l."""
    l = 3
    while True:
        if f.lead % l and is_probable_prime(l):
            if len(_gcd_mod(_trim_mod(f.coeffs, l), _trim_mod(df.coeffs, l), l)) == 1:
                return l
        l += 2


def _modular_factors(f: list[int], l: int) -> list[list[int]]:
    """The monic irreducible factors of f, monic and squarefree mod l odd:
    distinct-degree splitting by gcd(x^(l^d) - x, f), then Cantor-Zassenhaus
    on each product g of degree-d factors, where gcd(a^((l^d - 1)/2) - 1, g)
    splits g for about half of all a, drawn from a fixed seed."""
    rng = random.Random(l)
    out, split = [], []
    h = [0, 1]  # x^(l^d) mod f
    d = 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _pow_mod(h, l, f, l)
        g = _gcd_mod(f, _add_mod(h, [0, 1], l, -1), l)
        if len(g) > 1:
            split.append((g, d))
            f = _divmod_mod(f, g, l)[0]
            h = _divmod_mod(h, f, l)[1]
    split += [(f, len(f) - 1)] if len(f) > 1 else []
    while split:
        g, d = split.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        a = _trim_mod([rng.randrange(l) for _ in range(len(g) - 1)], l)
        s = _gcd_mod(g, _add_mod(_pow_mod(a, (l**d - 1) // 2, g, l), [1], l, -1), l)
        split += [(s, d), (_divmod_mod(g, s, l)[0], d)] if 1 < len(s) < len(g) else [(g, d)]
    return out


def _hensel(f, g: list[int], l: int, M: int) -> list[int]:
    """The monic factor mod M = l^(2^j) of f that is g mod l, for g monic
    irreducible mod l and f squarefree mod l with a unit lead: Newton steps
    m -> m^2, where f = q*g + r with r = 0 mod m and u = 1/q mod g (kept by
    u <- u*(2 - q*u); at first q^(l^d - 2) in the field (Z/l)[x]/(g) of
    l^d elements) make g + (r*u mod g) divide f mod m^2."""
    u = _pow_mod(_divmod_mod(f, g, l)[0], l ** (len(g) - 1) - 2, g, l)
    m = l
    while m < M:
        m *= m
        q, r = _divmod_mod(f, g, m)
        u = _divmod_mod(_mul_mod((u, _add_mod([2], _mul_mod((q, u), m), m, -1)), m), g, m)[1]
        g = _add_mod(g, _divmod_mod(_mul_mod((r, u), m), g, m)[1], m)
    return g


def _irreducible_factors(f: IntPoly) -> list[IntPoly]:
    """The irreducible factors over Q of f, monic and squarefree (Zassenhaus):
    a monic factor of f has coefficients below B = 2^n * ||f||_2 (Mignotte),
    so mod M > 2B it is the symmetric residue of a product of lifted modular
    factors.  Subsets are tried by increasing size, each checked by exact
    division, until what is left has no factor from half its lifts or fewer."""
    l = _good_prime(f, f.derivative())
    factors = _modular_factors(_trim_mod(f.coeffs, l), l)
    if len(factors) == 1:
        return [f]
    bound = 2 * ((math.isqrt(sum(c * c for c in f.coeffs)) + 1) << f.degree)
    M = l
    while M <= bound:
        M *= M
    lifts = [_hensel(f.coeffs, g, l, M) for g in factors]
    out = []
    size = 1
    while 2 * size <= len(lifts):
        for subset in itertools.combinations(range(len(lifts)), size):
            prod = _mul_mod((lifts[i] for i in subset), M)
            g = IntPoly(tuple(c - M if 2 * c > M else c for c in prod))
            if g.divides(f):
                out.append(g)
                f = f.exact_div(g)
                lifts = [h for i, h in enumerate(lifts) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


@lru_cache(maxsize=1024)
def integer_roots(f: IntPoly) -> tuple[int, ...]:
    """Sorted distinct integer roots of a nonzero integer polynomial.

    An integer root of the squarefree part g is 0 or divides its lowest
    nonzero coefficient, so it is at most c = max |coefficient|.  Roots of g
    mod l (`_good_prime`) are simple, so Newton steps lift each past 2c, and
    its symmetric residue, the only integer root it can be, is tested."""
    if f.is_zero:
        raise DecideError("zero polynomial")
    g = _squarefree_part(f)
    dg = g.derivative()
    l = _good_prime(g, dg)
    bound = 2 * max(abs(c) for c in g.coeffs)
    roots = []
    for r in range(l):
        if g(r) % l:
            continue
        m = l
        while m <= bound:
            m *= m
            r = (r - g(r) * pow(dg(r), -1, m)) % m
        r = r - m if 2 * r > m else r
        if g(r) == 0:
            roots.append(r)
    return tuple(sorted(roots))


def x_power_minus_a(f: IntPoly) -> tuple[int, int] | None:
    """(d, a) when f = x^d - a with d >= 2, else None."""
    d = f.degree
    if d < 2 or not f.is_monic or any(c != 0 for c in f.coeffs[1:-1]):
        return None
    return d, -f.coeffs[0]


def capelli_irreducible(d: int, a: int) -> bool:
    """Whether x^d - a is irreducible over Q (Capelli).

    It is exactly when a is not a p-th power for any prime p | d and, when
    4 | d, a is not of the form -4 b^4.
    """
    if any(perfect_power_root(a, p) is not None for p in factorize(d)):
        return False
    if d % 4 == 0 and a < 0 and (-a) % 4 == 0:
        return perfect_power_root((-a) // 4, 4) is None
    return True


@lru_cache(maxsize=1024)
def factor_monic(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Irreducible factorization of a monic integer polynomial over Q, as
    (factor, multiplicity) sorted by degree and coefficients: the roots of
    `integer_roots`, then the rest of the squarefree part, irreducible up to
    degree 3 and else split by `_irreducible_factors`; multiplicities are
    counted by exact division."""
    if not f.is_monic:
        raise DecideError("factor_monic expects a monic polynomial")
    f.check_caps()
    if f.degree > _FACTOR_DEGREE_CAP:
        raise UnsupportedInstance(
            f"factorization supported up to degree {_FACTOR_DEGREE_CAP}; got {f.degree}"
        )
    factors = [IntPoly.of(-r, 1) for r in integer_roots(f)]
    rest = _squarefree_part(f)
    for g in factors:
        rest = rest.exact_div(g)
    factors += _irreducible_factors(rest) if rest.degree > 3 else [rest] if rest.degree else []
    out = []
    for g in factors:
        k = 0
        while g.divides(f):
            f = f.exact_div(g)
            k += 1
        out.append((g, k))
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


# ---------------------------------------------------------------------------
# Root extraction over quadratic fields
# ---------------------------------------------------------------------------


class QuadRoot(NamedTuple):
    """The root a + b*sqrt(d) of an irreducible quadratic, d squarefree;
    a record only, with no arithmetic."""

    a: Fraction
    b: Fraction
    d: int


@dataclass(frozen=True)
class RootEntry:
    """A root with its multiplicity; `roots_quadratic` returns a tuple of them."""

    root: Fraction | QuadRoot
    mult: int


def roots_quadratic(f: IntPoly) -> tuple[RootEntry, ...]:
    """All roots of monic f as rationals and `QuadRoot` records a + b*sqrt(d).

    Succeeds exactly when f splits into linear and quadratic irreducible
    factors over Q, and raises UnsupportedInstance otherwise: for a
    non-monic f, past `factor_monic`'s caps, and for an irreducible factor
    of degree 3 or more.  Reported roots satisfy the integral-basis shape
    of quadratic integers (a, b integral, or both half-integral when
    d = 1 mod 4); every factor is verified by exact expansion.
    """
    if not f.is_monic or f.degree < 1:
        raise UnsupportedInstance("roots_quadratic expects a monic polynomial of degree >= 1")
    entries: list[RootEntry] = []
    for g, mult in factor_monic(f):
        if g.degree == 1:
            entries.append(RootEntry(Fraction(-g.coeffs[0]), mult))
        elif g.degree == 2:
            b_coef, c_coef = g.coeffs[1], g.coeffs[0]
            disc = b_coef * b_coef - 4 * c_coef
            s, d = squarefree_decompose(disc)
            a = Fraction(-b_coef, 2)
            b = Fraction(s, 2)
            # verify by exact expansion: (x - a - b*sqrt(d))(x - a + b*sqrt(d)) == g
            if 2 * a != -b_coef or a * a - b * b * d != c_coef:
                raise DecideError(f"internal: quadratic roots of {g} fail expansion")
            # integral-basis sanity: full integers, or half-integers with d = 1 mod 4
            if (a.denominator == 2 or b.denominator == 2) and d % 4 != 1:
                raise DecideError(f"internal: half-integral roots of {g} with d = {d}")
            entries.append(RootEntry(QuadRoot(a, b, d), mult))
            entries.append(RootEntry(QuadRoot(a, -b, d), mult))
        else:
            raise UnsupportedInstance(f"{f!r} has an irreducible factor of degree {g.degree}")
    return tuple(entries)
