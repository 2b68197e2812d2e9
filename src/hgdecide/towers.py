"""Tower fields: multiquadratic, cyclotomic and radical extensions of Q,
and any of them with i adjoined.

Exactly the four kinds the conditional decider needs: the roots of a
pair live in one of the first three, and its identity in a tower that
holds i (`IAdjoinedTower` supplies i where the roots' tower lacks it).
Every tower knows its multiplication table and a distinguished complex
embedding for rigorous enclosures.  An element holds integer numerators
over one positive denominator, in lowest terms, on a closed monomial
basis, so equal elements have equal fields; `coords` reads them as
Fractions.  Towers are built on integers: the structure constants are
products of square roots, powers of zeta reduced by the monic Phi_n,
Y^n = a and i^2 = -1, so a product is an integer convolution over the
table and a sum an integer sum over the lcm of the two denominators.

Conventions for the embedding: sqrt(d) = i*sqrt(|d|) for d < 0, zeta_n =
exp(2*pi*i/n), and the radical generator of x^n = a is the positive real
root for a > 0 and |a|**(1/n) * exp(i*pi/n) for a < 0.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .dyadic import ComplexInterval, DyadicInterval, value_type
from .enclosure import cos_interval, pi_interval, root_int_interval, sin_interval
from .errors import DecideError, FieldMismatchError, UnsupportedInstance
from .numutil import euler_phi, factorize, perfect_power_root, squarefree_decompose
from .polys import cyclotomic

MULTIQUAD_GENERATOR_CAP = 4  # spec cap 3, plus one slot for adjoining i
CYCLOTOMIC_CONDUCTOR_CAP = 24
RADICAL_INDEX_CAP = 8


def _mul_sqrt(a: int, b: int) -> tuple[int, int]:
    """sqrt(a)*sqrt(b) = coef * sqrt(c) for signed squarefree a, b."""
    if a == 1:
        return 1, b
    if b == 1:
        return 1, a
    g = math.gcd(abs(a), abs(b))
    c0 = abs(a) * abs(b) // (g * g)
    if a < 0 and b < 0:
        return -g, c0
    if (a < 0) != (b < 0):
        return g, -c0 if c0 != 1 else -1
    return g, c0


class Tower:
    """Shared machinery over a fixed monomial basis (basis[0] == 1)."""

    key: tuple
    degree: int
    _table: list | None = None

    def basis_product(self, i: int, j: int) -> dict[int, int]:
        raise NotImplementedError

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        raise NotImplementedError

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "TowerElem":
        coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise DecideError("coordinate length != tower degree")
        den = math.lcm(*(c.denominator for c in coords))
        return _reduced(self, [c.numerator * (den // c.denominator) for c in coords], den)

    def rational(self, q) -> "TowerElem":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return tuple.__new__(TowerElem, (self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator))

    def zero(self) -> "TowerElem":
        return self.rational(0)

    def one(self) -> "TowerElem":
        return self.rational(1)

    def _integral(self, nums) -> "TowerElem":
        """The element with integer coordinates `nums`."""
        return tuple.__new__(TowerElem, (self, tuple(nums), 1))

    def _unit(self, k: int) -> "TowerElem":
        """The k-th basis element."""
        return self._integral((0,) * k + (1,) + (0,) * (self.degree - k - 1))

    def i_element(self) -> "TowerElem | None":
        """i as an element, or None when the tower does not contain it;
        each kind builds it on first use as its cached `_i`."""
        return self._i

    def _product_table(self) -> list[list[tuple[tuple[int, int], ...]]]:
        """basis_product(i, j) as (k, c) pairs, built once per tower
        (degree^2 entries, at most 84^2 under the caps)."""
        table = self._table
        if table is None:
            n = self.degree
            table = [[tuple(self.basis_product(i, j).items()) for j in range(n)] for i in range(n)]
            self._table = table
        return table

    def __eq__(self, other):
        return isinstance(other, Tower) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def _reduced(tower: Tower, nums, den: int) -> "TowerElem":
    """nums/den (den > 0) in lowest terms; zero is 0/1."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
    return tuple.__new__(TowerElem, (tower, tuple(nums), den))


@value_type
class TowerElem(NamedTuple):
    """sum_k nums[k]/den * basis[k], with den > 0 and gcd(den, *nums) = 1;
    made by `Tower.element`, `Tower.rational` and the arithmetic below."""

    tower: Tower
    nums: tuple[int, ...]
    den: int

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(a, den) for a in self.nums)

    def _check(self, other: "TowerElem"):
        if self.tower is not other.tower and self.tower != other.tower:
            raise FieldMismatchError("elements of different towers")

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise DecideError(f"{self} is irrational")
        return Fraction(self.nums[0], self.den)

    def __add__(self, other):
        other = self._coerce(other)
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return _reduced(self.tower, [a * f1 + b * f2 for a, b in zip(self.nums, other.nums)], d1 * f1)

    __radd__ = __add__

    def __neg__(self):
        return tuple.__new__(TowerElem, (self.tower, tuple(-a for a in self.nums), self.den))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def _coerce(self, other) -> "TowerElem":
        if isinstance(other, TowerElem):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        raise FieldMismatchError(f"cannot coerce {other!r}")

    def __mul__(self, other):
        """The convolution of the numerators over the integer product
        table, over the product of the denominators."""
        other = self._coerce(other)
        table = self.tower._product_table()
        out = [0] * len(self.nums)
        ys = [(j, b) for j, b in enumerate(other.nums) if b]
        for i, a in enumerate(self.nums):
            if not a:
                continue
            row = table[i]
            for j, b in ys:
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
        return _reduced(self.tower, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("tower elements have no division: negative power")
        out = self.tower.one()
        for _ in range(k):
            out = out * self
        return out

    def embed(self, prec: int) -> ComplexInterval:
        out = ComplexInterval.from_real(DyadicInterval.from_int(0))
        den = self.den
        for k, a in enumerate(self.nums):
            if a:
                out = out.add(self.tower.embed_basis(k, prec).scale(Fraction(a, den), prec), prec)
        return out

    def __repr__(self):
        return f"TowerElem{self.coords}"


# ---------------------------------------------------------------------------
# Multiquadratic towers
# ---------------------------------------------------------------------------


class MultiquadraticTower(Tower):
    """Q(sqrt(d1), ..., sqrt(dk)): basis of squarefree radicands closed
    under multiplication (a subgroup of Q*/Q*^2), element 1 first."""

    def __init__(self, gens: tuple[int, ...]):
        gens = tuple(sorted(set(int(g) for g in gens)))
        for g in gens:
            if g in (0, 1):
                raise DecideError(f"invalid radicand {g}")
            s, d = squarefree_decompose(g)
            if s != 1:
                raise DecideError(f"radicand {g} not squarefree")
        # doubling per generator yields the product of every subset of the
        # generators: the whole subgroup
        group = {1}
        for g in gens:
            group |= {_mul_sqrt(g, c)[1] for c in group}
        if len(group) > 2**MULTIQUAD_GENERATOR_CAP:
            raise UnsupportedInstance(
                f"multiquadratic tower needs more than {MULTIQUAD_GENERATOR_CAP} generators"
            )
        self.radicands = tuple(sorted(group, key=lambda c: (c != 1, abs(c), c < 0)))
        self.index = {c: k for k, c in enumerate(self.radicands)}
        self.degree = len(self.radicands)
        self.key = ("multiquadratic", self.radicands)

    def basis_product(self, i: int, j: int) -> dict[int, int]:
        coef, c = _mul_sqrt(self.radicands[i], self.radicands[j])
        return {self.index[c]: coef}

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        c = self.radicands[k]
        if c == 1:
            return ComplexInterval.from_real(DyadicInterval.from_int(1))
        root = root_int_interval(abs(c), 2, prec)
        if c > 0:
            return ComplexInterval.from_real(root)
        return ComplexInterval(DyadicInterval.from_int(0), root)

    @functools.cached_property
    def _i(self) -> TowerElem | None:
        return self.sqrt_elem(-1) if -1 in self.index else None

    def sqrt_elem(self, d: int) -> TowerElem:
        if d not in self.index:
            raise DecideError(f"sqrt({d}) not in tower {self.radicands}")
        return self._unit(self.index[d])


# ---------------------------------------------------------------------------
# Cyclotomic towers
# ---------------------------------------------------------------------------


class CyclotomicTower(Tower):
    """Q(zeta_n) with power basis 1, zeta, ..., zeta^(phi(n)-1).

    `_powers[e]` holds the integer coordinates of zeta^e for e < n: each
    is the one before shifted up a degree, with the top coordinate
    reduced by the monic Phi_n.
    """

    def __init__(self, n: int):
        if n < 3:
            raise DecideError("conductor must be >= 3")
        if n > CYCLOTOMIC_CONDUCTOR_CAP:
            raise UnsupportedInstance(
                f"cyclotomic conductor {n} exceeds cap {CYCLOTOMIC_CONDUCTOR_CAP}"
            )
        self.n = n
        self.phi = euler_phi(n)
        self.degree = self.phi
        self.key = ("cyclotomic", n)
        phi_n = cyclotomic(n).coeffs
        powers = [(1,) + (0,) * (self.phi - 1)]
        for _ in range(n - 1):
            prev = powers[-1]
            top = prev[-1]
            powers.append(tuple(a - top * c for a, c in zip((0,) + prev[:-1], phi_n)))
        self._powers = powers

    def basis_product(self, i: int, j: int) -> dict[int, int]:
        return {k: c for k, c in enumerate(self._powers[(i + j) % self.n]) if c}

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        if k == 0:  # zeta^0 = 1 exactly: rational elements embed with no slack
            return ComplexInterval.from_real(DyadicInterval.from_int(1))
        angle = pi_interval(prec + 8).scale(Fraction(2 * k, self.n), prec + 8)
        return ComplexInterval(cos_interval(angle, prec), sin_interval(angle, prec))

    @functools.cached_property
    def _i(self) -> TowerElem | None:
        return self.root_of_unity(self.n // 4) if self.n % 4 == 0 else None

    def root_of_unity(self, e: int) -> TowerElem:
        return self._integral(self._powers[e % self.n])

    def sqrt_of(self, d: int) -> TowerElem | None:
        """The principal sqrt(d) for a squarefree integer d, or None.

        sqrt(d) lies in Q(zeta_n) iff the conductor of Q(sqrt(d)) divides n
        (|d| for d = 1 mod 4, else 4|d|).  Built from sqrt(2) = zeta_8 +
        zeta_8^-1, i = zeta_4 and the quadratic Gauss sums g_p = sum over k
        of legendre(k, p) * zeta_p^k, which Gauss evaluated as sqrt(p) for
        p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4.  Counting those powers
        of i gives the embedded value i^turns * sqrt(|d|) exactly, and the
        sign is set so that the result is sqrt(d) > 0 for d > 0 and
        i*sqrt(|d|) for d < 0; the square is still checked exactly.
        """
        conductor = abs(d) if d % 4 == 1 else 4 * abs(d)
        if d in (0, 1) or self.n % conductor:
            return None
        val = self.one()
        turns = 0  # val embeds as i^turns times a positive real
        rem = d
        if rem % 2 == 0:
            z8 = self.root_of_unity(self.n // 8)
            val = val * (z8 + self.root_of_unity(self.n - self.n // 8))
            rem //= 2
        for p in sorted(factorize(abs(rem))):
            g = self.zero()
            for k in range(1, p):
                sign = 1 if pow(k, (p - 1) // 2, p) == 1 else -1
                g = g + self.root_of_unity(k * self.n // p) * sign
            val = val * g
            turns += p % 4 == 3
        if turns % 2 != (d < 0):
            val = val * self.root_of_unity(self.n // 4)
            turns += 1
        if turns % 4 >= 2:
            val = -val
        if (val * val).as_rational() != d:
            raise DecideError(f"internal: gauss-sum sqrt({d}) failed verification")
        return val


# ---------------------------------------------------------------------------
# Radical towers
# ---------------------------------------------------------------------------


class RadicalTower(Tower):
    """Q(zeta_n, a^(1/n)) with basis zeta^j * Y^s, Y^n = a.

    Y embeds as the positive real root for a > 0 and as |a|^(1/n) *
    exp(i*pi/n) for a < 0, a root of Y^n = a for every n (`recognize`
    folds the sign of an odd-index radicand into the roots, so it builds
    a < 0 only for even n).  Constructed only for x^n - a irreducible over Q(zeta_n) (otherwise
    UnsupportedInstance), so the presented ring is a field: no product of
    nonzero elements is zero, which is what the division-free identity
    build in `schanuel` relies on.  The index n is at least 3: square
    roots live in a `MultiquadraticTower`.
    """

    def __init__(self, n: int, a: int):
        if n < 3 or a in (0, 1):
            raise DecideError("invalid radical tower parameters")
        if n > RADICAL_INDEX_CAP:
            raise UnsupportedInstance(f"radical index {n} exceeds cap {RADICAL_INDEX_CAP}")
        self.n = n
        self.a = a
        self.phi = euler_phi(n)
        self.degree = self.phi * n
        self.key = ("radical", n, a)
        self._cyclo = CyclotomicTower(n)
        # the presented ring is a field iff Y^n - a stays irreducible over
        # Q(zeta_n); otherwise coordinates are ambiguous and even zero tests
        # would lie (e.g. Y^4 - sqrt(2) inside Q(zeta_8, 2^(1/8)))
        self._check_kummer_irreducible()

    def _check_kummer_irreducible(self):
        """Vahlen-Capelli over K = Q(zeta_n): x^n - a is irreducible iff
        a is not a p-th power in K for any prime p | n (and not in -4K^4
        when 4 | n, which i in K folds into the square test).

        For n <= 8, [Q(zeta_n):Q] has no factor equal to an odd prime
        p | n, so an odd-p-th root of a rational lies in K only when a is
        a rational p-th power; and a rational is a square in K exactly
        when the conductor of its squarefree part divides n.
        """
        n, a = self.n, self.a
        for p in factorize(n):
            if p == 2:
                continue
            if perfect_power_root(a, p) is not None:
                raise UnsupportedInstance(
                    f"{a} is a {p}-th power: x^{n} - {a} splits over Q(zeta_{n})"
                )
        if n % 2 == 0:
            _, d = squarefree_decompose(a)
            if d == 1:
                raise UnsupportedInstance(f"{a} is a square: x^{n} - {a} is reducible")
            conductor = abs(d) if d % 4 == 1 else 4 * abs(d)
            if n % conductor == 0:
                raise UnsupportedInstance(
                    f"sqrt({d}) lies in Q(zeta_{n}): x^{n} - {a} is reducible there"
                )

    # basis index: k = s * phi + j  <->  zeta^j * Y^s   (j < phi, s < n)
    def basis_product(self, i: int, j: int) -> dict[int, int]:
        s1, j1 = divmod(i, self.phi)
        s2, j2 = divmod(j, self.phi)
        s = s1 + s2
        scalar = self.a ** (s // self.n)
        offset = s % self.n * self.phi
        return {offset + k: c * scalar for k, c in self._cyclo.basis_product(j1, j2).items()}

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        s, j = divmod(k, self.phi)
        root = root_int_interval(abs(self.a), self.n, prec + 8)
        if self.a > 0:
            rad = ComplexInterval.from_real(root.pow_int(s, prec + 8))
        else:
            angle = pi_interval(prec + 8).scale(Fraction(s, self.n), prec + 8)
            mag = root.pow_int(s, prec + 8)
            rad = ComplexInterval(
                cos_interval(angle, prec).mul(mag, prec),
                sin_interval(angle, prec).mul(mag, prec),
            )
        return self._cyclo.embed_basis(j, prec).mul(rad, prec)

    @functools.cached_property
    def _i(self) -> TowerElem | None:
        if self.n % 4 != 0:
            return None
        return self._integral(self._cyclo._powers[self.n // 4] + (0,) * (self.degree - self.phi))

    def radical_root(self, zeta_power: int) -> TowerElem:
        """The root zeta^zeta_power * a^(1/n) of x^n - a."""
        zeta = self._cyclo._powers[zeta_power % self.n]
        return self._integral((0,) * self.phi + zeta + (0,) * (self.degree - 2 * self.phi))


# ---------------------------------------------------------------------------
# i adjoined
# ---------------------------------------------------------------------------


class IAdjoinedTower(Tower):
    """T(i) for a tower T without i, with basis b_0..b_(d-1), i*b_0..i*b_(d-1)
    over T's basis b_k.

    An element of T keeps its coordinates, padded with zeros (`lift`), and
    its embedding: i*b_k embeds as i times b_k, so the nonzero coordinates
    of a lifted element are embedded exactly as in T.  T(i) is a field,
    since x^2 + 1 stays irreducible over a field that lacks i.
    """

    def __init__(self, base: Tower):
        if base.i_element() is not None:
            raise DecideError(f"{base.key} already holds i")
        self.base = base
        self.degree = 2 * base.degree
        self.key = ("i-adjoined", base.key)

    def basis_product(self, i: int, j: int) -> dict[int, int]:
        d = self.base.degree
        (e1, k1), (e2, k2) = divmod(i, d), divmod(j, d)
        e = e1 + e2  # the power of i
        offset, sign = (e % 2) * d, -1 if e == 2 else 1
        return {offset + k: sign * c for k, c in self.base.basis_product(k1, k2).items()}

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        e, k = divmod(k, self.base.degree)
        z = self.base.embed_basis(k, prec)
        return ComplexInterval(z.im.neg(), z.re) if e else z

    @functools.cached_property
    def _i(self) -> TowerElem:
        return self._unit(self.base.degree)

    def lift(self, x: TowerElem) -> TowerElem:
        """x, an element of T, as an element of T(i)."""
        if x.tower != self.base:
            raise FieldMismatchError(f"{x.tower.key} is not the base of {self.key}")
        return tuple.__new__(TowerElem, (self, x.nums + (0,) * self.base.degree, x.den))
