"""Root-symmetry recognizers.

The central object is the graph on the irrational roots of a monic integer
polynomial whose edges join u, v with u + v an integer (so the common
center rho = (u+v)/2 is a half-integer) and u - v irrational.  The class
of interest is "the graph has a perfect matching".

Edges are computed exactly at the level of irreducible factors: if u is a
root of irreducible f1 and c - u is a root of irreducible f2, then f1
divides f2(c - x), which forces deg f1 = deg f2 and f2(c - x) =
(-1)^deg * f1(x); comparing subleading coefficients pins c =
-(a1 + a2)/deg uniquely.  So adjacency reduces to one integrality test
and one exact polynomial identity per factor pair, and needs no root
representation at all.  Representations (quadratic elements, cyclotomic
or radical tower elements) are attached where available because the
conditional decider consumes the matched pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DecideError, UnsupportedInstance
from .exactnum import QuadElem, is_half_integer
from .numutil import perfect_power_root
from .polys import (
    IntPoly,
    QPoly,
    cyclotomic_index,
    factor_monic,
    has_negative_real_root,
    numeric_roots,
    roots_quadratic,
)
from .towers import (
    CYCLOTOMIC_CONDUCTOR_CAP,
    RADICAL_INDEX_CAP,
    CyclotomicTower,
    RadicalTower,
)

_TOWER_CACHE: dict = {}


def _cyclo_tower(n: int) -> CyclotomicTower:
    key = ("cyclotomic", n)
    if key not in _TOWER_CACHE:
        _TOWER_CACHE[key] = CyclotomicTower(n)
    return _TOWER_CACHE[key]


def _radical_tower(n: int, a: int) -> RadicalTower:
    key = ("radical", n, a)
    if key not in _TOWER_CACHE:
        _TOWER_CACHE[key] = RadicalTower(n, a)
    return _TOWER_CACHE[key]


# ---------------------------------------------------------------------------
# Per-factor root representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorRoots:
    poly: IntPoly
    mult: int
    values: tuple  # QuadElem | TowerElem | None per root, conjugate-consistent order
    approx: tuple  # complex approximations aligned with `values`


def _x_power_minus_a(f: IntPoly) -> tuple[int, int] | None:
    d = f.degree
    if d < 2 or not f.is_monic:
        return None
    if any(c != 0 for c in f.coeffs[1:-1]):
        return None
    return d, -f.coeffs[0]


_ROOTS_CACHE: dict[IntPoly, tuple] = {}


def _factor_root_values(g: IntPoly):
    """Exact root representations for one irreducible monic factor."""
    hit = _ROOTS_CACHE.get(g)
    if hit is not None:
        return hit
    out = _factor_root_values_uncached(g)
    _ROOTS_CACHE[g] = out
    return out


def _factor_root_values_uncached(g: IntPoly):
    approx = tuple(complex(r) for r in numeric_roots(g))
    if g.degree == 2:
        rm = roots_quadratic(g)
        vals = sorted((e.root for e in rm.entries), key=lambda x: (x.a, x.b))
        return tuple(vals), tuple(_match_approx(vals, approx))
    n = cyclotomic_index(g)
    if n is not None and n <= CYCLOTOMIC_CONDUCTOR_CAP:
        tower = _cyclo_tower(n)
        import math

        ks = [k for k in range(1, n) if math.gcd(k, n) == 1]
        vals = tuple(tower.root_of_unity(k) for k in ks)
        return vals, tuple(_match_approx(vals, approx))
    pa = _x_power_minus_a(g)
    if pa is not None and pa[0] <= RADICAL_INDEX_CAP:
        d, a = pa
        try:
            tower = _radical_tower(d, a)
        except UnsupportedInstance:
            # irreducible over Q but the Kummer presentation is not a
            # field (e.g. x^8 - 2): fall back to opaque roots; the graph
            # never needed representations, only the conditional decider
            return (None,) * g.degree, approx
        vals = tuple(tower.radical_root(j) for j in range(d))
        return vals, tuple(_match_approx(vals, approx))
    return (None,) * g.degree, approx


def _value_approx(v) -> complex:
    if isinstance(v, QuadElem):
        root = abs(v.d) ** 0.5
        if v.d > 0:
            return complex(float(v.a) + float(v.b) * root, 0.0)
        return complex(float(v.a), float(v.b) * root)
    emb = v.embed(64)
    return complex(float(emb.re.mid()), float(emb.im.mid()))


def _match_approx(vals, approx):
    """Order numeric roots to align with the exact representations."""
    remaining = list(approx)
    out = []
    for v in vals:
        target = _value_approx(v)
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - target))
        out.append(remaining.pop(best))
    return out


# ---------------------------------------------------------------------------
# Symmetry graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    factor: int
    root: int
    copy: int

    def label(self) -> str:
        return f"f{self.factor}.r{self.root}.c{self.copy}"


@dataclass(frozen=True)
class SymmetryGraph:
    source: IntPoly
    factors: tuple[FactorRoots, ...]
    vertices: tuple[Vertex, ...]
    adjacency: tuple[frozenset, ...]  # indices into `vertices`
    edge_center: dict  # (vi, vj) i<j -> rho (Fraction)


def _mirror_center(f1: IntPoly, f2: IntPoly) -> Fraction | None:
    """c with f2(c - x) = (-1)^deg f1(x), or None; c is unique if it exists."""
    d = f1.degree
    if d != f2.degree or d < 1:
        return None
    a1 = f1.coeffs[d - 1] if d >= 1 else 0
    a2 = f2.coeffs[d - 1] if d >= 1 else 0
    c = Fraction(-(a1 + a2), d)
    if c.denominator != 1:
        return None
    mirrored = f2.mirror(int(c))  # f2(c - x), rational coefficients
    target = f1.to_q() * ((-1) ** d)
    return c if mirrored == target else None


def _root_partner(fr: FactorRoots, partner: FactorRoots, c: Fraction, idx: int) -> int:
    """Index in `partner` of the root c - u where u = fr root #idx."""
    u = fr.values[idx]
    if u is not None and partner.values[0] is not None:
        if isinstance(u, QuadElem):
            target = QuadElem(Fraction(c) - u.a, -u.b, u.d)
            for k, v in enumerate(partner.values):
                if isinstance(v, QuadElem) and v == target:
                    return k
            raise DecideError("mirror root missing from quadratic factor")
        if getattr(u, "tower", None) is not None and getattr(partner.values[0], "tower", None) == u.tower:
            target = u.tower.rational(c) - u
            for k, v in enumerate(partner.values):
                if v == target:
                    return k
            raise DecideError("mirror root missing from tower factor")
    # opaque factors: the mirror map permutes roots; pick the numerically
    # nearest, which is exact at desk-scale separations
    target = complex(float(c)) - fr.approx[idx]
    return min(range(len(partner.approx)), key=lambda k: abs(partner.approx[k] - target))


_GRAPH_CACHE: dict[IntPoly, SymmetryGraph] = {}


def build_symmetry_graph(f: IntPoly) -> SymmetryGraph:
    """Graph on the irrational roots of f; exact edges, multiset vertices."""
    hit = _GRAPH_CACHE.get(f)
    if hit is not None:
        return hit
    graph = _build_symmetry_graph_uncached(f)
    _GRAPH_CACHE[f] = graph
    return graph


def _build_symmetry_graph_uncached(f: IntPoly) -> SymmetryGraph:
    if not f.is_monic or f.degree < 1:
        raise DecideError("symmetry graph needs a monic polynomial of degree >= 1")
    factors = []
    for g, mult in factor_monic(f):
        if g.degree == 1:
            continue  # rational roots are not vertices
        vals, approx = _factor_root_values(g)
        factors.append(FactorRoots(g, mult, vals, approx))
    vertices = []
    for fi, fr in enumerate(factors):
        for ri in range(fr.poly.degree):
            for copy in range(fr.mult):
                vertices.append(Vertex(fi, ri, copy))
    vindex = {v: i for i, v in enumerate(vertices)}
    adjacency = [set() for _ in vertices]
    edge_center = {}
    for fi, fr in enumerate(factors):
        for fj in range(fi, len(factors)):
            other = factors[fj]
            c = _mirror_center(fr.poly, other.poly)
            if c is None:
                continue
            rho = Fraction(c, 2)
            for ri in range(fr.poly.degree):
                rj = _root_partner(fr, other, c, ri)
                if fi == fj and ri == rj:
                    raise DecideError("internal: root mirrored to itself")
                for c1 in range(fr.mult):
                    for c2 in range(other.mult):
                        vi = vindex[Vertex(fi, ri, c1)]
                        vj = vindex[Vertex(fj, rj, c2)]
                        if vi == vj:
                            continue
                        adjacency[vi].add(vj)
                        adjacency[vj].add(vi)
                        key = (min(vi, vj), max(vi, vj))
                        edge_center[key] = rho
    return SymmetryGraph(
        f, tuple(factors), tuple(vertices),
        tuple(frozenset(s) for s in adjacency), edge_center,
    )


# ---------------------------------------------------------------------------
# Matching search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchedPair:
    u: Vertex
    v: Vertex
    rho: Fraction
    w: object  # QuadElem | TowerElem | None: u = rho + w, v = rho - w


@dataclass(frozen=True)
class MatchingCertificate:
    source: IntPoly
    pairs: tuple[MatchedPair, ...]

    def describe(self) -> dict:
        return {
            "source": list(self.source.coeffs),
            "pairs": [
                {"u": p.u.label(), "v": p.v.label(), "rho": str(p.rho)}
                for p in self.pairs
            ],
        }


@dataclass(frozen=True)
class NoMatching:
    source: IntPoly
    vertex_count: int
    best_size: int
    best: tuple[tuple[Vertex, Vertex], ...]

    def describe(self) -> dict:
        return {
            "source": list(self.source.coeffs),
            "vertices": self.vertex_count,
            "max_matching_size": self.best_size,
        }


def _perfect_matching(adj: list[frozenset]) -> list[tuple[int, int]] | None:
    n = len(adj)
    if n % 2:
        return None
    matched = [-1] * n
    pairs: list[tuple[int, int]] = []

    def bt() -> bool:
        u = next((i for i in range(n) if matched[i] < 0), None)
        if u is None:
            return True
        for v in sorted(adj[u]):
            if matched[v] < 0:
                matched[u] = v
                matched[v] = u
                pairs.append((u, v))
                if bt():
                    return True
                pairs.pop()
                matched[u] = matched[v] = -1
        return False

    return pairs if bt() else None


def _maximum_matching(adj: list[frozenset]) -> list[tuple[int, int]]:
    n = len(adj)
    best: list[tuple[int, int]] = []
    matched = [False] * n
    current: list[tuple[int, int]] = []

    def bt(start: int):
        nonlocal best
        remaining = sum(1 for i in range(start, n) if not matched[i])
        if len(current) + remaining // 2 <= len(best):
            return
        u = next((i for i in range(start, n) if not matched[i]), None)
        if u is None:
            if len(current) > len(best):
                best = list(current)
            return
        for v in sorted(adj[u]):
            if v > u and not matched[v]:
                matched[u] = matched[v] = True
                current.append((u, v))
                bt(u + 1)
                current.pop()
                matched[u] = matched[v] = False
        matched[u] = True
        bt(u + 1)
        matched[u] = False
        if len(current) > len(best):
            best = list(current)

    bt(0)
    return best


def find_symmetric_matching(f: IntPoly) -> MatchingCertificate | NoMatching:
    """Perfect matching on the root-symmetry graph, or maximal evidence.

    The certificate is self-contained: each pair carries the half-integer
    center rho and, when the factor family supports it, the exact
    irrational offset w with u = rho + w, v = rho - w.
    """
    graph = build_symmetry_graph(f)
    adj = list(graph.adjacency)
    result = _perfect_matching(adj)
    if result is None:
        best = _maximum_matching(adj)
        pairs = tuple(
            (graph.vertices[i], graph.vertices[j]) for i, j in best
        )
        return NoMatching(f, len(graph.vertices), len(best), pairs)
    pairs = []
    for i, j in result:
        vi, vj = graph.vertices[i], graph.vertices[j]
        rho = graph.edge_center[(min(i, j), max(i, j))]
        u_val = graph.factors[vi.factor].values[vi.root]
        w = None
        if u_val is not None:
            if isinstance(u_val, QuadElem):
                w = QuadElem(u_val.a - rho, u_val.b, u_val.d)
            else:
                w = u_val - rho
        pairs.append(MatchedPair(vi, vj, rho, w))
    cert = MatchingCertificate(f, tuple(pairs))
    validate_matching(f, cert)
    return cert


def validate_matching(f: IntPoly, cert: MatchingCertificate) -> None:
    """Standalone check, independent of the search that produced the pairs."""
    graph = build_symmetry_graph(f)
    seen = set()
    for p in cert.pairs:
        for v in (p.u, p.v):
            if v in seen:
                raise DecideError(f"vertex {v.label()} matched twice")
            seen.add(v)
        if (2 * p.rho).denominator != 1:
            raise DecideError("pair center is not a half-integer")
        fu = graph.factors[p.u.factor]
        fv = graph.factors[p.v.factor]
        c = _mirror_center(fu.poly, fv.poly)
        if c is None or Fraction(c, 2) != p.rho:
            raise DecideError("pair fails the exact mirror identity")
        if p.w is not None:
            u_val = fu.values[p.u.root]
            v_val = fv.values[p.v.root]
            if isinstance(u_val, QuadElem):
                s = u_val + v_val
                diff = u_val - v_val
                if s.b != 0 or s.a != 2 * p.rho or diff.b == 0:
                    raise DecideError("quadratic pair violates u+v in Z, u-v irrational")
            else:
                s = u_val + v_val
                diff = u_val - v_val
                if not s.is_rational or s.as_rational() != 2 * p.rho or diff.is_rational:
                    raise DecideError("tower pair violates u+v in Z, u-v irrational")
    if len(seen) != len(graph.vertices):
        raise DecideError("matching does not cover every vertex")


# ---------------------------------------------------------------------------
# Shifted-even and shifted-square recognizers
# ---------------------------------------------------------------------------


def detect_shifted_even(f: IntPoly) -> Fraction | None:
    """rho in (1/2)Z with f(rho+x) = f(rho-x) identically, else None.

    The only candidate is rho = -a_{d-1}/(d*lead); verified exactly.
    """
    d = f.degree
    if d < 1 or d % 2:
        return None
    rho = Fraction(-f.coeffs[d - 1], d * f.lead)
    if not is_half_integer(rho):
        return None
    left = f.to_q().compose_linear(rho, Fraction(1))
    if any(c != 0 for i, c in enumerate(left.coeffs) if i % 2):
        return None
    return rho


@dataclass(frozen=True)
class ShiftedSquareWitness:
    """f(x) = g((x - rho)^2) with monic g having a negative real root."""

    rho: Fraction
    g: QPoly


def recognize_shifted_square(f: IntPoly | QPoly) -> ShiftedSquareWitness | None:
    """Recognize polynomials with a root of rational real part.

    Degree >= 3 uses the composition criterion f(x) = g((x-rho)^2); the
    quadratic case lands on the same witness via the sign of the
    discriminant; linear polynomials are excluded here (their root is
    rational outright and carries no witness of this shape).
    """
    fq = f.to_q() if isinstance(f, IntPoly) else f
    d = fq.degree
    if d < 2 or d % 2 or not fq.is_monic:
        return None
    rho = Fraction(-fq.coeffs[d - 1], d)
    shifted = fq.compose_linear(rho, Fraction(1))
    if any(c != 0 for i, c in enumerate(shifted.coeffs) if i % 2):
        return None
    g = QPoly(tuple(shifted.coeffs[0::2]))
    if not has_negative_real_root(g):
        return None
    # round-trip: g((x-rho)^2) must reproduce f exactly
    expanded = g.substitute_square().compose_linear(-rho, Fraction(1))
    if expanded != fq:
        raise DecideError("internal: shifted-square reconstruction failed")
    return ShiftedSquareWitness(rho, g)


# ---------------------------------------------------------------------------
# Radical / cyclotomic family check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalFamily:
    kind: str  # "x_power_minus_a" | "cyclotomic" | "neither"
    d: int | None = None
    a: int | None = None
    n: int | None = None
    irreducible: bool | None = None
    eligible: bool | None = None  # parity condition of the matching class


def check_radical_family(f: IntPoly) -> RadicalFamily:
    """Identify x^d - a and cyclotomic shapes with their parity conditions.

    x^d - a is irreducible iff a is not a p-th power for any prime p | d
    and, when 4 | d, a is not of the form -4 b^4 (Capelli).  Eligibility
    for the symmetric-matching class asks d even (radical case) or 4 | n
    (cyclotomic case).
    """
    pa = _x_power_minus_a(f)
    if pa is not None:
        d, a = pa
        irreducible = True
        dd = d
        primes = set()
        x = 2
        while x * x <= dd:
            while dd % x == 0:
                primes.add(x)
                dd //= x
            x += 1
        if dd > 1:
            primes.add(dd)
        for p in primes:
            if perfect_power_root(a, p) is not None:
                irreducible = False
        if d % 4 == 0 and a < 0 and (-a) % 4 == 0:
            if perfect_power_root((-a) // 4, 4) is not None:
                irreducible = False
        return RadicalFamily(
            "x_power_minus_a", d=d, a=a,
            irreducible=irreducible, eligible=irreducible and d % 2 == 0,
        )
    n = cyclotomic_index(f)
    if n is not None:
        return RadicalFamily("cyclotomic", n=n, irreducible=True, eligible=n % 4 == 0)
    return RadicalFamily("neither")
