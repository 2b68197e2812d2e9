"""Polynomials over Z and Q: exact arithmetic, factorization into
irreducibles at desk scale, quadratic-field root extraction, cyclotomics.

IntPoly/QPoly are dense ascending coefficient tuples.  Degree is capped at
32 and input coefficients at 256 bits; beyond the caps operations reject
with a diagnostic instead of risking unbounded searches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DecideError
from .exactnum import QuadElem
from .numutil import divisors, euler_phi, squarefree_decompose

DEGREE_CAP = 32
COEFF_BIT_CAP = 256
_FACTOR_DEGREE_CAP = 16  # completeness limit of the subset factor search


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, dense ascending coefficients, zero = ()."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim([int(c) for c in self.coeffs]))

    @classmethod
    def of(cls, *coeffs) -> "IntPoly":
        return cls(tuple(coeffs))

    @classmethod
    def x_power(cls, k: int) -> "IntPoly":
        return cls((0,) * k + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise DecideError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def check_caps(self) -> "IntPoly":
        if self.degree > DEGREE_CAP:
            raise DecideError(f"degree {self.degree} exceeds cap {DEGREE_CAP}")
        if any(abs(c).bit_length() > COEFF_BIT_CAP for c in self.coeffs):
            raise DecideError(f"coefficient exceeds {COEFF_BIT_CAP} bits")
        return self

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def divides(self, other: "IntPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except DecideError:
            return False

    def exact_div(self, d: "IntPoly") -> "IntPoly":
        """Exact quotient over Z; raises if the division leaves a remainder."""
        q, r = self.to_q().divrem(d.to_q())
        if not r.is_zero:
            raise DecideError("inexact polynomial division")
        if any(c.denominator != 1 for c in q.coeffs):
            raise DecideError("quotient not integral")
        return IntPoly(tuple(c.numerator for c in q.coeffs))

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

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def mirror(self, c: int | Fraction) -> "QPoly":
        """f(c - x)."""
        return self.to_q().compose_linear(Fraction(c), Fraction(-1))

    def shift_by(self, r: Fraction) -> "QPoly":
        """f(x + r)."""
        return self.to_q().compose_linear(Fraction(r), Fraction(1))

    def cauchy_bound(self) -> Fraction:
        """All complex roots have |z| < this bound."""
        if self.degree < 1:
            return Fraction(0)
        lead = abs(self.lead)
        return 1 + max(Fraction(abs(c), lead) for c in self.coeffs[:-1])

    def __repr__(self):
        if self.is_zero:
            return "IntPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if i == 0 else (f"{c}*x^{i}" if i > 1 else f"{c}*x"))
        return "IntPoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim([Fraction(c) for c in self.coeffs]))

    @classmethod
    def of(cls, *coeffs) -> "QPoly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
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

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly(tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly(tuple(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(tuple(out))

    __rmul__ = __mul__

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

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        return self * (1 / self.lead)

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic gcd over Q."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divrem(b)[1]
        return a.monic() if not a.is_zero else a

    def compose_linear(self, alpha: Fraction, beta: Fraction) -> "QPoly":
        """f(alpha + beta*x), exact."""
        out = QPoly.of(0)
        lin = QPoly.of(alpha, beta)
        for c in reversed(self.coeffs):
            out = out * lin + QPoly.of(c)
        return out

    def substitute_square(self) -> "QPoly":
        """g(x) -> g(x^2)."""
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return QPoly(tuple(out))

    def clear_denominators(self) -> IntPoly:
        """Primitive integer polynomial with the same roots, positive lead."""
        if self.is_zero:
            return IntPoly(())
        lcm = 1
        for c in self.coeffs:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        return IntPoly(tuple(int(c * lcm) for c in self.coeffs)).primitive_part()

    def derivative(self) -> "QPoly":
        return QPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __repr__(self):
        return "QPoly(" + ", ".join(str(c) for c in self.coeffs) + ")"


# ---------------------------------------------------------------------------
# Named operations (spec surface)
# ---------------------------------------------------------------------------


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd over Q, returned as the primitive integer representative."""
    g = a.to_q().gcd(b.to_q())
    return g.clear_denominators()


def poly_divrem(a: IntPoly, b: IntPoly) -> tuple[QPoly, QPoly]:
    return a.to_q().divrem(b.to_q())


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

_CYCLO_CACHE: dict[int, IntPoly] = {}


def cyclotomic(n: int) -> IntPoly:
    """n-th cyclotomic polynomial via exact division of x^n - 1."""
    if n < 1:
        raise DecideError("cyclotomic index must be >= 1")
    hit = _CYCLO_CACHE.get(n)
    if hit is not None:
        return hit
    num = IntPoly((-1,) + (0,) * (n - 1) + (1,))  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(cyclotomic(d))
    _CYCLO_CACHE[n] = num
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
    k = 0
    g = f
    while not g.is_zero and g.coeffs and g.coeffs[0] == 0:
        g = QPoly(g.coeffs[1:])
        k += 1
    return count_real_roots_below(g, Fraction(0)) > 0 if not g.is_zero else False


# ---------------------------------------------------------------------------
# Factorization into irreducibles (desk scale)
# ---------------------------------------------------------------------------


def _integer_roots(f: IntPoly) -> list[int]:
    """Integer roots of a monic integer polynomial, with repetition collapsed."""
    roots = []
    g = f
    zero_mult = 0
    while g.coeffs and g.coeffs[0] == 0:
        g = IntPoly(g.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        roots.append(0)
    if g.degree >= 1 and g.coeffs:
        for d in divisors(g.coeffs[0]):
            for r in (d, -d):
                if g(r) == 0:
                    roots.append(r)
    return sorted(set(roots))


# working precision of the numeric root proposals, in decimal digits
_ROOT_DIGITS = 60


@lru_cache(maxsize=512)
def numeric_roots(f: IntPoly) -> tuple:
    """All complex roots of f as mpmath numbers, to _ROOT_DIGITS digits.

    Runs under `mpmath.workdps`, so mpmath's global precision is untouched.
    """
    import mpmath

    with mpmath.workdps(_ROOT_DIGITS):
        coeffs = [mpmath.mpf(c) for c in reversed(f.coeffs)]
        return tuple(mpmath.polyroots(coeffs, maxsteps=200, extraprec=400))


def _integer_root_product(roots: tuple, subset: tuple) -> tuple[int, ...] | None:
    """Descending coefficients of prod (x - roots[i]) over `subset`, rounded
    to integers, or None when some coefficient is not within 0.01 of one.

    A function of its own so that the `workdps` block never spans a yield
    of `_candidate_factors`, which would leak the precision to the caller.
    """
    import mpmath

    with mpmath.workdps(_ROOT_DIGITS):
        poly = [mpmath.mpc(1)]
        for idx in subset:
            r = roots[idx]
            poly = (
                [poly[0]]
                + [poly[i] - r * poly[i - 1] for i in range(1, len(poly))]
                + [-r * poly[-1]]
            )
        cand = []
        for c in poly:
            if abs(mpmath.im(c)) > 0.01:
                return None
            n = int(mpmath.nint(mpmath.re(c)))
            if abs(mpmath.re(c) - n) > 0.01:
                return None
            cand.append(n)
    return tuple(cand)


def _candidate_factors(f: IntPoly, k: int):
    """Degree-k monic integer candidate divisors of f, numerically proposed.

    Candidates come from subsets of the numeric roots; callers verify each
    one by exact division, so precision only affects completeness, and 60
    digits is far beyond what desk-scale separations need.
    """
    roots = numeric_roots(f)
    seen = set()
    for subset in itertools.combinations(range(len(roots)), k):
        key = _integer_root_product(roots, subset)
        if key is None or key in seen:
            continue
        seen.add(key)
        yield IntPoly(tuple(reversed(key)))


def _quadratic_candidates_from_constant(f: IntPoly):
    """x^2 + B*x + C with C | f(0): exact fallback for quadratic factors."""
    if not f.coeffs or f.coeffs[0] == 0:
        return
    const = abs(f.coeffs[0])
    bound = f.cauchy_bound()
    bmax = int(2 * bound) + 1
    if bmax > 1000 or len(divisors(const)) > 2000:
        return
    for c in divisors(const):
        for cc in (c, -c):
            for b in range(-bmax, bmax + 1):
                yield IntPoly.of(cc, b, 1)


def _known_irreducible(f: IntPoly) -> bool:
    """Cheap certified-irreducibility shapes: cyclotomic and x^d - a."""
    if cyclotomic_index(f) is not None:
        return True
    d = f.degree
    if d >= 2 and f.is_monic and all(c == 0 for c in f.coeffs[1:-1]):
        a = -f.coeffs[0]
        from .numutil import factorize, perfect_power_root

        for p in factorize(d):
            if perfect_power_root(a, p) is not None:
                return False
        if d % 4 == 0 and a < 0 and (-a) % 4 == 0 \
                and perfect_power_root((-a) // 4, 4) is not None:
            return False
        return True
    return False


_FACTOR_CACHE: dict[IntPoly, list] = {}


def factor_monic(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Irreducible factorization of a monic integer polynomial over Q.

    Rational roots come from divisor search; higher-degree factors from
    numeric root clustering verified by exact division.  Searching degrees
    in increasing order certifies irreducibility of everything reported: a
    degree-k divisor found after all smaller degrees were exhausted can
    have no proper factor, and the final remainder has none either.
    """
    hit = _FACTOR_CACHE.get(f)
    if hit is not None:
        return hit
    if not f.is_monic:
        raise DecideError("factor_monic expects a monic polynomial")
    f.check_caps()
    if f.degree > _FACTOR_DEGREE_CAP:
        raise DecideError(
            f"factorization supported up to degree {_FACTOR_DEGREE_CAP}; got {f.degree}"
        )
    factors: list[IntPoly] = []
    rest = f
    for r in _integer_roots(f):
        lin = IntPoly.of(-r, 1)
        while lin.divides(rest):
            rest = rest.exact_div(lin)
            factors.append(lin)
    if rest.degree >= 2 and _known_irreducible(rest):
        result = sorted(
            {g: factors.count(g) for g in factors}.items() | {(rest, 1)},
            key=lambda t: (t[0].degree, t[0].coeffs),
        )
        _FACTOR_CACHE[f] = result
        return result
    k = 2
    while 2 * k <= rest.degree:
        gcd_der = poly_gcd(rest, rest.derivative())
        squarefree = rest.exact_div(gcd_der) if gcd_der.degree >= 1 else rest
        found = None
        for cand in itertools.chain(
            _candidate_factors(squarefree, k),
            _quadratic_candidates_from_constant(rest) if k == 2 else (),
        ):
            if cand.degree == k and cand.is_monic and cand.divides(rest):
                found = cand
                break
        if found is None:
            k += 1
            continue
        while found.divides(rest):
            rest = rest.exact_div(found)
            factors.append(found)
    if rest.degree >= 1:
        factors.append(rest)
    out: dict[IntPoly, int] = {}
    for g in factors:
        out[g] = out.get(g, 0) + 1
    result = sorted(out.items(), key=lambda t: (t[0].degree, t[0].coeffs))
    _FACTOR_CACHE[f] = result
    return result


# ---------------------------------------------------------------------------
# Root extraction over quadratic fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootEntry:
    root: object  # Fraction | QuadElem | tower root (recognize module)
    mult: int


@dataclass(frozen=True)
class RootMultiset:
    entries: tuple[RootEntry, ...]
    source: IntPoly

    @property
    def total(self) -> int:
        return sum(e.mult for e in self.entries)

    def fields(self) -> set[int]:
        return {e.root.d for e in self.entries if isinstance(e.root, QuadElem)}

    def rational_entries(self) -> list[RootEntry]:
        return [e for e in self.entries if isinstance(e.root, Fraction)]

    def quadratic_entries(self) -> list[RootEntry]:
        return [e for e in self.entries if isinstance(e.root, QuadElem)]


class NotSplitting:
    """Sentinel: an irreducible factor of degree >= 3 blocks quadratic roots."""

    def __init__(self, blocker: IntPoly):
        self.blocker = blocker

    def __repr__(self):
        return f"NotSplitting({self.blocker!r})"


def roots_quadratic(f: IntPoly) -> RootMultiset | NotSplitting:
    """All roots of monic f as rationals and a+b*sqrt(d) quadratic elements.

    Succeeds exactly when f splits into linear and quadratic irreducible
    factors over Q.  Reported roots satisfy the integral-basis shape of
    quadratic integers (a, b integral, or both half-integral when
    d = 1 mod 4); every factor is verified by exact expansion.
    """
    if not f.is_monic or f.degree < 1:
        raise DecideError("roots_quadratic expects a monic polynomial of degree >= 1")
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
            r1 = QuadElem(a, b, d)
            r2 = QuadElem(a, -b, d)
            # verify by exact expansion: (x-r1)(x-r2) == g
            assert (r1 + r2).as_rational() == -b_coef and (r1 * r2).as_rational() == c_coef
            # integral-basis sanity: full integers, or half-integers with d = 1 mod 4
            if a.denominator == 2 or b.denominator == 2:
                assert d % 4 == 1
            entries.append(RootEntry(r1, mult))
            entries.append(RootEntry(r2, mult))
        else:
            return NotSplitting(g)
    return RootMultiset(tuple(entries), f)
