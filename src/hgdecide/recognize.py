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
and one exact polynomial identity per factor pair.  Roots need no values
either: in a component of the factor graph the mirror maps compose to
x -> +-x + h, so each root is labelled as the image of a root of one base
factor, and a partner's label follows from the two maps.  Tower values
(quadratic, cyclotomic or radical) are attached where available, for the
conditional decider; no root is ever approximated.

One backtracking search finds a maximum matching and stops at the first
perfect one; the polynomial is in the class exactly when it returns n/2
pairs for n vertices.  A polynomial past the degree caps (32 overall, 16
for the factor search) raises UnsupportedInstance, which `hgdecide
recognize` reports with exit code 2 (see `cli` for the whole table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DecideError, UnsupportedInstance
from .exactnum import is_half_integer
from .polys import (
    IntPoly,
    QPoly,
    capelli_irreducible,
    cyclotomic_index,
    factor_monic,
    has_negative_real_root,
    roots_quadratic,
    x_power_minus_a,
)
from .towers import (
    CYCLOTOMIC_CONDUCTOR_CAP,
    RADICAL_INDEX_CAP,
    CyclotomicTower,
    MultiquadraticTower,
    RadicalTower,
    Tower,
    TowerElem,
)


@lru_cache(maxsize=192)
def _tower(kind: type, *params) -> Tower:
    """One tower object per field, so its product table is built once.

    The roots' towers come from here, and so does the conditional
    oracle's common tower (`ConditionalLimitOracle._common_tower`): the
    multiquadratic tower of a pair's radicands and i is shared by every
    oracle over those radicands, and so is a field's `IAdjoinedTower`."""
    return kind(*params)


# ---------------------------------------------------------------------------
# Per-factor root representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorRoots:
    poly: IntPoly
    mult: int
    values: tuple  # TowerElem per root in tower order; None per opaque root


def _exact_roots(g: IntPoly) -> tuple | None:
    """Quadratic, cyclotomic or radical roots of g, or None when g has no
    exact representation.

    Each field has one tower, so the roots of g and of g(-x) (the factors
    that mirror at c = 0) share it: Phi_2m, m odd, takes its roots
    zeta_2m^k = -zeta_m^((k+m)/2) in Q(zeta_m), and x^d + a, d odd, its
    roots -zeta_d^j * a^(1/d) in the tower of x^d - a.
    """
    if g.degree == 2:
        roots = sorted((e.root for e in roots_quadratic(g)), key=lambda r: (r.a, r.b))
        tower = _tower(MultiquadraticTower, (roots[0].d,))
        return tuple(tower.element((r.a, r.b)) for r in roots)
    n = cyclotomic_index(g)
    if n is not None and n <= CYCLOTOMIC_CONDUCTOR_CAP:
        units = [k for k in range(1, n) if math.gcd(k, n) == 1]
        if n % 4 != 2:
            tower = _tower(CyclotomicTower, n)
            return tuple(tower.root_of_unity(k) for k in units)
        m = n // 2
        tower = _tower(CyclotomicTower, m)
        return tuple(-tower.root_of_unity((k + m) // 2) for k in units)
    pa = x_power_minus_a(g)
    if pa is not None and pa[0] <= RADICAL_INDEX_CAP:
        d, a = pa
        sign = -1 if d % 2 and a < 0 else 1
        try:
            tower = _tower(RadicalTower, d, sign * a)
        except UnsupportedInstance:
            # irreducible over Q but the Kummer presentation is not a
            # field (e.g. x^8 - 2): opaque roots; the graph never needed
            # representations, only the conditional decider
            return None
        return tuple(sign * tower.radical_root(j) for j in range(d))
    return None


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
    factors: tuple[FactorRoots, ...]
    vertices: tuple[Vertex, ...]
    adjacency: tuple[frozenset, ...]  # indices into `vertices`
    edge_center: dict  # (vi, vj) i<j -> rho (Fraction)


def _mirror_center(f1: IntPoly, f2: IntPoly) -> int | None:
    """c with f2(c - x) = (-1)^deg f1(x), or None; c is unique if it exists."""
    d = f1.degree
    if d != f2.degree or d < 1:
        return None
    c, rem = divmod(-(f1.coeffs[d - 1] + f2.coeffs[d - 1]), d)
    if rem or f2.compose_linear(c, -1) != f1 * (-1) ** d:
        return None
    return c


def _orient(factors: list, mirrors: list) -> list[tuple[int, int, int]]:
    """(b, s, h) per factor: its roots are s*r + h for the roots r of factor b.

    A factor mirrors onto itself at one center at most (no finite root set
    is invariant under a nonzero shift), so along any path of the mirror
    graph the maps x -> c - x compose to x -> +-x + h, and a spanning tree
    of each component fixes them.  The tree is rooted at an exact factor
    when the component has one.
    """
    orient = [None] * len(factors)
    for b in sorted(range(len(factors)), key=lambda i: factors[i].values[0] is None):
        if orient[b] is not None:
            continue
        orient[b], todo = (b, 1, 0), [b]
        while todo:
            i = todo.pop()
            s, h = orient[i][1:]
            for fi, fj, c in mirrors:
                j = fj if fi == i else fi if fj == i else None
                if j is not None and orient[j] is None:
                    orient[j] = (b, -s, c - h)
                    todo.append(j)
    return orient


@lru_cache(maxsize=256)
def build_symmetry_graph(f: IntPoly) -> SymmetryGraph:
    """Graph on the irrational roots of f; exact edges, multiset vertices."""
    if not f.is_monic or f.degree < 1:
        raise DecideError("symmetry graph needs a monic polynomial of degree >= 1")
    factors = [  # rational roots are not vertices
        FactorRoots(g, mult, _exact_roots(g) or (None,) * g.degree)
        for g, mult in factor_monic(f) if g.degree > 1
    ]
    mirrors = [
        (fi, fj, c)
        for fi in range(len(factors))
        for fj in range(fi, len(factors))
        if (c := _mirror_center(factors[fi].poly, factors[fj].poly)) is not None
    ]
    orient = _orient(factors, mirrors)
    # root k of a factor oriented (b, s, h) is s*r_l + h for the root r_l
    # of factor b with label l: opaque roots are labelled in order, exact
    # ones by their value
    labels = []
    for fr, (b, s, h) in zip(factors, orient):
        if fr.values[0] is None:
            labels.append(tuple(range(fr.poly.degree)))
        else:
            image = tuple((r if s > 0 else -r) + h for r in factors[b].values)
            labels.append(tuple(map(image.index, fr.values)))
    vertices = [
        Vertex(fi, ri, copy)
        for fi, fr in enumerate(factors) for ri in range(fr.poly.degree) for copy in range(fr.mult)
    ]
    vindex = {v: i for i, v in enumerate(vertices)}
    adjacency = [set() for _ in vertices]
    edge_center = {}
    for fi, fj, c in mirrors:
        (b, si, hi), (_, sj, hj) = orient[fi], orient[fj]
        base = factors[b].values
        rho = Fraction(c, 2)
        for ri, label in enumerate(labels[fi]):
            # c - (si*r + hi) is sj*r' + hj with r' = r when si = -sj, else
            # the base's self-mirror of r; an opaque base's roots are
            # labelled so that this involution pairs 2j, 2j + 1 (it has no
            # fixed point: its center c/2 is rational)
            if si != sj:
                mirror = label
            elif base[0] is None:
                mirror = label ^ 1
            else:
                mirror = base.index(si * (c - hi - hj) - base[label])
            rj = labels[fj].index(mirror)
            if fi == fj and ri == rj:
                raise DecideError("internal: root mirrored to itself")
            for c1 in range(factors[fi].mult):
                for c2 in range(factors[fj].mult):
                    vi = vindex[Vertex(fi, ri, c1)]
                    vj = vindex[Vertex(fj, rj, c2)]
                    adjacency[vi].add(vj)
                    adjacency[vj].add(vi)
                    edge_center[min(vi, vj), max(vi, vj)] = rho
    return SymmetryGraph(
        tuple(factors), tuple(vertices),
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
    w: TowerElem | None  # u = rho + w, v = rho - w


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
    vertex_count: int
    best_size: int


def _maximum_matching(adj: list[frozenset]) -> list[tuple[int, int]]:
    """A maximum matching, by backtracking in one DFS order: the least
    unmatched vertex u takes each free partner v > u in ascending order,
    then stays single.  Stops at the first perfect matching, the first in
    that order, so a perfect matching is the same whatever else the graph
    holds."""
    n = len(adj)
    best: list[tuple[int, int]] = []
    matched = [False] * n
    current: list[tuple[int, int]] = []

    def bt(start: int) -> bool:
        """Search the matchings extending `current`; True once `best` is
        perfect."""
        nonlocal best
        remaining = sum(1 for i in range(start, n) if not matched[i])
        if len(current) + remaining // 2 <= len(best):
            return False
        u = next((i for i in range(start, n) if not matched[i]), None)
        if u is None:
            best = list(current)  # larger than `best`, or the bound had cut it
            return 2 * len(best) == n
        for v in sorted(adj[u]):
            if v > u and not matched[v]:
                matched[u] = matched[v] = True
                current.append((u, v))
                if bt(u + 1):
                    return True
                current.pop()
                matched[u] = matched[v] = False
        matched[u] = True
        done = bt(u + 1)
        matched[u] = False
        return done

    bt(0)
    return best


def find_symmetric_matching(f: IntPoly) -> MatchingCertificate | NoMatching:
    """Perfect matching on the root-symmetry graph, or maximal evidence.

    The certificate is self-contained: each pair carries the half-integer
    center rho and, when the factor family supports it, the exact
    irrational offset w with u = rho + w, v = rho - w.
    """
    graph = build_symmetry_graph(f)
    best = _maximum_matching(list(graph.adjacency))
    if 2 * len(best) != len(graph.vertices):
        return NoMatching(len(graph.vertices), len(best))
    pairs = []
    for i, j in best:
        vi, vj = graph.vertices[i], graph.vertices[j]
        rho = graph.edge_center[(min(i, j), max(i, j))]
        u_val = graph.factors[vi.factor].values[vi.root]
        v_val = graph.factors[vj.factor].values[vj.root]
        w = None if u_val is None or v_val is None else u_val - rho
        pairs.append(MatchedPair(vi, vj, rho, w))
    cert = MatchingCertificate(f, tuple(pairs))
    validate_matching(f, cert)
    return cert


def validate_matching(f: IntPoly, cert: MatchingCertificate) -> None:
    """Standalone check, independent of the search that produced the pairs."""
    graph = build_symmetry_graph(f)
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    seen = set()
    for p in cert.pairs:
        for v in (p.u, p.v):
            if v in seen:
                raise DecideError(f"vertex {v.label()} matched twice")
            seen.add(v)
        # an edge joins roots u, v = c - u of factors that pass the exact
        # mirror identity, and its center is c/2
        key = tuple(sorted(vindex.get(v, -1) for v in (p.u, p.v)))
        if graph.edge_center.get(key) != p.rho:
            raise DecideError("pair is not an edge of the symmetry graph with center rho")
        if p.w is not None:
            u_val = graph.factors[p.u.factor].values[p.u.root]
            v_val = graph.factors[p.v.factor].values[p.v.root]
            if u_val is None or v_val is None or p.w != u_val - p.rho:
                raise DecideError("pair offset is not u - rho for exact roots u, v")
            s = u_val + v_val
            if not s.is_rational or s.as_rational() != 2 * p.rho or (u_val - v_val).is_rational:
                raise DecideError("pair violates u+v in Z, u-v irrational")
    if len(seen) != len(graph.vertices):
        raise DecideError("matching does not cover every vertex")


# ---------------------------------------------------------------------------
# Shifted-even and shifted-square recognizers
# ---------------------------------------------------------------------------


def _even_center(f: QPoly) -> tuple[Fraction, QPoly] | None:
    """(rho, f(rho + x)) when f(rho + x) = f(rho - x) identically, else
    None.  The only candidate is rho = -a_{d-1}/(d*lead); verified exactly."""
    d = f.degree
    if d < 1 or d % 2:
        return None
    rho = -f.coeffs[d - 1] / (d * f.lead)
    shifted = f.compose_linear(rho, 1)
    if any(shifted.coeffs[1::2]):
        return None
    return rho, shifted


def detect_shifted_even(f: IntPoly) -> Fraction | None:
    """rho in (1/2)Z with f(rho+x) = f(rho-x) identically, else None."""
    found = _even_center(f.to_q())
    return found[0] if found is not None and is_half_integer(found[0]) else None


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
    found = _even_center(fq) if fq.degree >= 2 and fq.is_monic else None
    if found is None:
        return None
    rho, shifted = found
    g = QPoly(shifted.coeffs[0::2])
    if not has_negative_real_root(g):
        return None
    # round-trip: g((x-rho)^2) must reproduce f exactly
    expanded = g.substitute_square().compose_linear(-rho, 1)
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

    Irreducibility of x^d - a is the Capelli test.  Eligibility for the
    symmetric-matching class asks d even (radical case) or 4 | n
    (cyclotomic case).
    """
    pa = x_power_minus_a(f)
    if pa is not None:
        d, a = pa
        irreducible = capelli_irreducible(d, a)
        return RadicalFamily(
            "x_power_minus_a", d=d, a=a,
            irreducible=irreducible, eligible=irreducible and d % 2 == 0,
        )
    n = cyclotomic_index(f)
    if n is not None:
        return RadicalFamily("cyclotomic", n=n, irreducible=True, eligible=n % 4 == 0)
    return RadicalFamily("neither")
