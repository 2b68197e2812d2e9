"""Tower fields: multiquadratic, cyclotomic, and radical extensions of Q.

Exactly the three families the conditional decider needs.  Elements are
exact rational coordinate vectors over a closed monomial basis; every
tower knows its multiplication table, its automorphisms (as coordinate
maps), and a distinguished complex embedding for rigorous enclosures.

Conventions for the embedding: sqrt(d) = i*sqrt(|d|) for d < 0, zeta_n =
exp(2*pi*i/n), and the radical generator of x^n = a is the positive real
root for a > 0, the real negative root for a < 0 with n odd, and
|a|**(1/n) * exp(i*pi/n) otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import ComplexInterval, DyadicInterval
from .enclosure import cos_interval, pi_interval, sin_interval, sqrt_int_interval
from .errors import DecideError, FieldMismatchError, UnsupportedInstance
from .exactnum import QuadElem
from .linalg import solve
from .numutil import euler_phi, int_nthroot_floor, squarefree_decompose
from .polys import QPoly, cyclotomic

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

    def basis_product(self, i: int, j: int) -> dict[int, Fraction]:
        raise NotImplementedError

    def automorphism_maps(self) -> list[list[dict[int, Fraction]]]:
        """Per automorphism: image coordinates of each basis element."""
        raise NotImplementedError

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        raise NotImplementedError

    def coords_of_i(self) -> tuple[Fraction, ...] | None:
        raise NotImplementedError

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "TowerElem":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise DecideError("coordinate length != tower degree")
        return TowerElem(self, coords)

    def rational(self, q) -> "TowerElem":
        return self.element([Fraction(q)] + [Fraction(0)] * (self.degree - 1))

    def zero(self) -> "TowerElem":
        return self.rational(0)

    def one(self) -> "TowerElem":
        return self.rational(1)

    def i_element(self) -> "TowerElem":
        ci = self.coords_of_i()
        if ci is None:
            raise UnsupportedInstance("tower does not contain i")
        return self.element(ci)

    def mul_coords(self, x, y) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.degree
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                for k, c in self.basis_product(i, j).items():
                    out[k] += a * b * c
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Tower) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


@dataclass(frozen=True)
class TowerElem:
    tower: Tower
    coords: tuple[Fraction, ...]

    def _check(self, other: "TowerElem"):
        if self.tower != other.tower:
            raise FieldMismatchError("elements of different towers")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise DecideError(f"{self} is irrational")
        return self.coords[0]

    def __add__(self, other):
        other = self._coerce(other)
        return TowerElem(self.tower, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return TowerElem(self.tower, tuple(-a for a in self.coords))

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
        other = self._coerce(other)
        return TowerElem(self.tower, self.tower.mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def inverse(self) -> "TowerElem":
        if self.is_zero:
            raise ZeroDivisionError("tower element zero")
        n = self.tower.degree
        # columns: coords of self * basis_j
        cols = []
        for j in range(n):
            unit = [Fraction(0)] * n
            unit[j] = Fraction(1)
            cols.append(self.tower.mul_coords(self.coords, unit))
        matrix = [[cols[j][i] for j in range(n)] for i in range(n)]
        rhs = [Fraction(1)] + [Fraction(0)] * (n - 1)
        sol = solve(matrix, rhs)
        if sol is None:
            raise UnsupportedInstance(
                "nonzero element is a zero divisor: radical tower is not a field"
            )
        return TowerElem(self.tower, tuple(sol))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        out = self.tower.one()
        for _ in range(abs(k)):
            out = out * base
        return out

    def apply(self, auto_map: list[dict[int, Fraction]]) -> "TowerElem":
        out = [Fraction(0)] * self.tower.degree
        for j, c in enumerate(self.coords):
            if c:
                for k, v in auto_map[j].items():
                    out[k] += c * v
        return TowerElem(self.tower, tuple(out))

    def embed(self, prec: int) -> ComplexInterval:
        out = ComplexInterval.from_real(DyadicInterval.from_int(0))
        for k, c in enumerate(self.coords):
            if c:
                out = out.add(self.tower.embed_basis(k, prec).scale(c, prec), prec)
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
        group = {1}
        frontier = [1]
        for g in gens:
            group |= {_mul_sqrt(g, c)[1] for c in list(group)}
        # close under products
        changed = True
        while changed:
            changed = False
            for a, b in itertools.product(list(group), repeat=2):
                c = _mul_sqrt(a, b)[1]
                if c not in group:
                    group.add(c)
                    changed = True
        if len(group) > 2**MULTIQUAD_GENERATOR_CAP:
            raise UnsupportedInstance(
                f"multiquadratic tower needs more than {MULTIQUAD_GENERATOR_CAP} generators"
            )
        self.radicands = tuple(sorted(group, key=lambda c: (c != 1, abs(c), c < 0)))
        self.index = {c: k for k, c in enumerate(self.radicands)}
        self.degree = len(self.radicands)
        self.key = ("multiquadratic", self.radicands)
        self._gen_basis: list[int] = []  # GF(2)-independent radicands
        self._decomp: dict[int, tuple[int, ...]] = {}
        self._build_generator_decomposition()

    def _build_generator_decomposition(self):
        # express each radicand as a square-class product of independent
        # generators; at <= 2**4 basis elements a subset search suffices
        for c in self.radicands:
            if c == 1:
                self._decomp[c] = ()
                continue
            found = None
            for r in range(len(self._gen_basis) + 1):
                for combo in itertools.combinations(range(len(self._gen_basis)), r):
                    acc = 1
                    for idx in combo:
                        acc = _mul_sqrt(acc, self._gen_basis[idx])[1]
                    if acc == c:
                        found = combo
                        break
                if found is not None:
                    break
            if found is None:
                self._gen_basis.append(c)
                self._decomp[c] = (len(self._gen_basis) - 1,)
            else:
                self._decomp[c] = found

    def basis_product(self, i: int, j: int) -> dict[int, Fraction]:
        coef, c = _mul_sqrt(self.radicands[i], self.radicands[j])
        return {self.index[c]: Fraction(coef)}

    def automorphism_maps(self):
        maps = []
        ngen = len(self._gen_basis)
        for signs in itertools.product((1, -1), repeat=ngen):
            amap = []
            for c in self.radicands:
                sign = 1
                for idx in self._decomp[c]:
                    sign *= signs[idx]
                amap.append({self.index[c]: Fraction(sign)})
            maps.append(amap)
        return maps

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        c = self.radicands[k]
        if c == 1:
            return ComplexInterval.from_real(DyadicInterval.from_int(1))
        root = sqrt_int_interval(abs(c), prec)
        if c > 0:
            return ComplexInterval.from_real(root)
        return ComplexInterval(DyadicInterval.from_int(0), root)

    def coords_of_i(self):
        if -1 not in self.index:
            return None
        out = [Fraction(0)] * self.degree
        out[self.index[-1]] = Fraction(1)
        return tuple(out)

    def sqrt_elem(self, d: int) -> TowerElem:
        if d not in self.index:
            raise DecideError(f"sqrt({d}) not in tower {self.radicands}")
        out = [Fraction(0)] * self.degree
        out[self.index[d]] = Fraction(1)
        return self.element(out)

    def from_quad(self, x: QuadElem) -> TowerElem:
        return self.rational(x.a) + self.sqrt_elem(x.d) * x.b


# ---------------------------------------------------------------------------
# Cyclotomic towers
# ---------------------------------------------------------------------------


class CyclotomicTower(Tower):
    """Q(zeta_n) with power basis 1, zeta, ..., zeta^(phi(n)-1)."""

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
        self._min_poly = cyclotomic(n).to_q()
        self._power_cache: dict[int, tuple[Fraction, ...]] = {}

    def _power_coords(self, e: int) -> tuple[Fraction, ...]:
        e %= self.n
        hit = self._power_cache.get(e)
        if hit is not None:
            return hit
        poly = QPoly(tuple([Fraction(0)] * e + [Fraction(1)]))
        rem = poly.divrem(self._min_poly)[1]
        coords = tuple(
            rem.coeffs[k] if k < len(rem.coeffs) else Fraction(0) for k in range(self.degree)
        )
        self._power_cache[e] = coords
        return coords

    def basis_product(self, i: int, j: int) -> dict[int, Fraction]:
        coords = self._power_coords(i + j)
        return {k: c for k, c in enumerate(coords) if c}

    def automorphism_maps(self):
        maps = []
        for a in range(1, self.n):
            if math.gcd(a, self.n) != 1:
                continue
            amap = []
            for j in range(self.degree):
                coords = self._power_coords(a * j)
                amap.append({k: c for k, c in enumerate(coords) if c})
            maps.append(amap)
        return maps

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        angle = pi_interval(prec + 8).scale(Fraction(2 * k, self.n), prec + 8)
        return ComplexInterval(cos_interval(angle, prec), sin_interval(angle, prec))

    def coords_of_i(self):
        if self.n % 4 != 0:
            return None
        return self._power_coords(self.n // 4)

    def root_of_unity(self, e: int) -> TowerElem:
        return self.element(self._power_coords(e))

    def sqrt_of(self, d: int) -> TowerElem | None:
        """An element whose square is the squarefree integer d, or None.

        sqrt(d) lies in Q(zeta_n) iff the conductor of Q(sqrt(d)) divides n
        (|d| for d = 1 mod 4, else 4|d|).  Built from quadratic Gauss sums
        g_p = sum over k of legendre(k, p) * zeta_p^k (with g_p^2 = p for
        p = 1 mod 4 and -p otherwise), sqrt(2) = zeta_8 + zeta_8^-1, and
        i = zeta_4; the construction is verified by exact squaring.
        """
        conductor = abs(d) if d % 4 == 1 else 4 * abs(d)
        if d in (0, 1) or self.n % conductor:
            return None
        from .numutil import factorize

        val = self.one()
        square = 1  # exact value of val^2, tracked alongside
        rem = d
        if rem % 2 == 0:
            z8 = self.root_of_unity(self.n // 8)
            val = val * (z8 + self.root_of_unity(self.n - self.n // 8))
            square *= 2
            rem //= 2
        for p in sorted(factorize(abs(rem))):
            g = self.zero()
            for k in range(1, p):
                sign = 1 if pow(k, (p - 1) // 2, p) == 1 else p - 1
                g = g + self.root_of_unity(k * self.n // p) * (1 if sign == 1 else -1)
            val = val * g
            square *= p if p % 4 == 1 else -p
        if (square > 0) != (d > 0):
            val = val * self.element(self._power_coords(self.n // 4))
            square = -square
        if (val * val).as_rational() != d:
            raise DecideError(f"internal: gauss-sum sqrt({d}) failed verification")
        return val


# ---------------------------------------------------------------------------
# Radical towers
# ---------------------------------------------------------------------------


class RadicalTower(Tower):
    """Q(zeta_n, a^(1/n)) with basis zeta^j * Y^s, Y^n = a.

    Constructed for irreducible x^n - a; if the presented ring fails to be
    a field the first division by a zero divisor raises a diagnostic.
    """

    def __init__(self, n: int, a: int):
        if n < 2 or a in (0, 1):
            raise DecideError("invalid radical tower parameters")
        if n > RADICAL_INDEX_CAP:
            raise UnsupportedInstance(f"radical index {n} exceeds cap {RADICAL_INDEX_CAP}")
        self.n = n
        self.a = a
        self.phi = euler_phi(n)
        self.degree = self.phi * n
        self.key = ("radical", n, a)
        self._cyclo = CyclotomicTower(n) if n >= 3 else None
        self._min_poly = cyclotomic(max(n, 1)).to_q() if n >= 3 else None
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
        from .numutil import factorize, perfect_power_root, squarefree_decompose

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
    def _zeta_coords(self, e: int) -> tuple[Fraction, ...]:
        if self.n <= 2:
            return (Fraction(1 if e % max(self.n, 1) == 0 else -1),)
        return self._cyclo._power_coords(e)

    def basis_product(self, i: int, j: int) -> dict[int, Fraction]:
        s1, j1 = divmod(i, self.phi)
        s2, j2 = divmod(j, self.phi)
        s = s1 + s2
        scalar = Fraction(self.a) ** (s // self.n)
        s %= self.n
        out: dict[int, Fraction] = {}
        for jj, c in enumerate(self._zeta_coords(j1 + j2)):
            if c:
                out[s * self.phi + jj] = c * scalar
        return out

    def automorphism_maps(self):
        maps = []
        units = [a for a in range(1, self.n) if math.gcd(a, self.n) == 1]
        for k in units:
            for t in range(self.n):
                amap = []
                for idx in range(self.degree):
                    s, j = divmod(idx, self.phi)
                    # zeta^j -> zeta^(k j); Y^s -> zeta^(t s) Y^s
                    out: dict[int, Fraction] = {}
                    for jj, c in enumerate(self._zeta_coords(k * j + t * s)):
                        if c:
                            out[s * self.phi + jj] = c
                    amap.append(out)
                maps.append(amap)
        return maps

    def _radical_interval(self, prec: int) -> DyadicInterval:
        m = int_nthroot_floor(abs(self.a) << (self.n * prec), self.n)
        exact = m**self.n == abs(self.a) << (self.n * prec)
        return DyadicInterval(m, -prec, m if exact else m + 1, -prec)

    def embed_basis(self, k: int, prec: int) -> ComplexInterval:
        s, j = divmod(k, self.phi)
        root = self._radical_interval(prec + 8)
        if self.a > 0:
            rad = ComplexInterval.from_real(root.pow_int(s, prec + 8))
        elif self.n % 2 == 1:
            rad = ComplexInterval.from_real(root.neg().pow_int(s, prec + 8))
        else:
            angle = pi_interval(prec + 8).scale(Fraction(s, self.n), prec + 8)
            mag = root.pow_int(s, prec + 8)
            rad = ComplexInterval(
                cos_interval(angle, prec).mul(mag, prec),
                sin_interval(angle, prec).mul(mag, prec),
            )
        if self.n <= 2:
            zc = ComplexInterval.from_real(DyadicInterval.from_int(1 if j == 0 else -1))
        else:
            zc = self._cyclo.embed_basis(j, prec)
        return zc.mul(rad, prec)

    def coords_of_i(self):
        if self.n % 4 != 0:
            return None
        zi = self._zeta_coords(self.n // 4)
        out = [Fraction(0)] * self.degree
        for jj, c in enumerate(zi):
            out[jj] = c
        return tuple(out)

    def radical_root(self, zeta_power: int) -> TowerElem:
        """The root zeta^zeta_power * a^(1/n) of x^n - a."""
        out = [Fraction(0)] * self.degree
        for jj, c in enumerate(self._zeta_coords(zeta_power)):
            out[self.phi + jj] = c
        return self.element(out)


# ---------------------------------------------------------------------------
# Multivariate polynomials over a tower; Galois norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MPoly:
    """Multivariate Laurent polynomial with TowerElem coefficients."""

    tower: Tower
    nvars: int
    terms: dict  # tuple[int, ...] -> TowerElem (nonzero)

    @classmethod
    def constant(cls, tower: Tower, nvars: int, value: TowerElem) -> "MPoly":
        if value.is_zero:
            return cls(tower, nvars, {})
        return cls(tower, nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, tower: Tower, nvars: int, exps, coeff: TowerElem) -> "MPoly":
        if coeff.is_zero:
            return cls(tower, nvars, {})
        return cls(tower, nvars, {tuple(exps): coeff})

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            s = c if acc is None else acc + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MPoly(self.tower, self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.tower, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                s = c if acc is None else acc + c
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MPoly(self.tower, self.nvars, out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, auto_map) -> "MPoly":
        return MPoly(
            self.tower, self.nvars, {e: c.apply(auto_map) for e, c in self.terms.items()}
        )


def galois_norm_poly(p: MPoly) -> dict[tuple, Fraction]:
    """prod over the tower's automorphisms of sigma(p); rational coefficients.

    The product is Galois-invariant, hence rational, and vanishes at any
    point where some conjugate of p does (in particular wherever p does).
    """
    if p.is_zero:
        raise DecideError("galois norm of the zero polynomial")
    maps = p.tower.automorphism_maps()
    prod = MPoly.constant(p.tower, p.nvars, p.tower.one())
    for amap in maps:
        prod = prod * p.apply(amap)
    out = {}
    for e, c in prod.terms.items():
        if not c.is_rational:
            raise DecideError("galois norm produced an irrational coefficient")
        out[e] = c.as_rational()
    return out
