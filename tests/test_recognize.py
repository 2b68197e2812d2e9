import cmath
import dataclasses
import functools
import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgdecide.errors import DecideError
from hgdecide.numutil import perfect_power_root
from hgdecide.polys import IntPoly, QPoly, capelli_irreducible, cyclotomic, factor_monic
from hgdecide.recognize import (
    MatchingCertificate,
    _exact_roots,
    _maximum_matching,
    NoMatching,
    build_symmetry_graph,
    check_radical_family,
    detect_shifted_even,
    find_symmetric_matching,
    recognize_shifted_square,
    validate_matching,
)

MATCHING_YES = [
    cyclotomic(12), cyclotomic(16), cyclotomic(20), cyclotomic(24),
    IntPoly((-2, 0, 0, 0, 1)), IntPoly((-3, 0, 0, 0, 0, 0, 1)),
    IntPoly.of(1, -1, 1), IntPoly.of(13, -4, 1),
]
MATCHING_NO = [
    cyclotomic(18),
    IntPoly((2, -8, -4, 0, 1)),
    IntPoly((1044, 120, -71, -5, 1)),
    IntPoly((-17, 37, -16, -1, 1)),
]

X8_MINUS_2 = IntPoly((-2,) + (0,) * 7 + (1,))
# degree-16 products of two irreducible octics, once a 5-11 s numeric search
TWO_OCTICS = {
    "phi15*phi30": cyclotomic(15) * cyclotomic(30),
    "(x^8-2)((1-x)^8-2)": X8_MINUS_2 * X8_MINUS_2.compose_linear(1, -1),
    "phi16(x)phi16(1-x)": cyclotomic(16) * cyclotomic(16).compose_linear(1, -1),
    "phi20(x)phi20(1-x)": cyclotomic(20) * cyclotomic(20).compose_linear(1, -1),
}


class TestSymmetricMatching:
    @pytest.mark.parametrize("f", MATCHING_YES, ids=lambda f: str(f.coeffs))
    def test_positive_list(self, f):
        cert = find_symmetric_matching(f)
        assert isinstance(cert, MatchingCertificate)
        validate_matching(f, cert)
        irrational = sum(
            g.degree * m for g, m in __import__("hgdecide.polys", fromlist=["factor_monic"]).factor_monic(f)
            if g.degree >= 2
        )
        assert 2 * len(cert.pairs) == irrational

    @pytest.mark.parametrize("f", MATCHING_NO, ids=lambda f: str(f.coeffs))
    def test_negative_list(self, f):
        r = find_symmetric_matching(f)
        assert isinstance(r, NoMatching)
        assert r.best_size * 2 < r.vertex_count

    def test_phi18_has_no_edges_at_all(self):
        r = find_symmetric_matching(cyclotomic(18))
        assert r.best_size == 0 and r.vertex_count == 6

    def test_multiplicity_pairing(self):
        f = IntPoly.of(13, -4, 1) * IntPoly.of(13, -4, 1)
        cert = find_symmetric_matching(f)
        assert isinstance(cert, MatchingCertificate) and len(cert.pairs) == 2
        validate_matching(f, cert)

    def test_cross_factor_edges_exist(self):
        # (x^2-2x-1) and (x^2-6x+7) mirror through c = 4
        g = build_symmetry_graph(IntPoly.of(-1, -2, 1) * IntPoly.of(7, -6, 1))
        cross = [
            (i, j)
            for i, adj in enumerate(g.adjacency)
            for j in adj
            if g.vertices[i].factor != g.vertices[j].factor
        ]
        assert cross

    def test_validator_rejects_tampered_pairs(self):
        f = IntPoly.of(13, -4, 1)
        cert = find_symmetric_matching(f)
        bad = MatchingCertificate(f, (cert.pairs[0].__class__(
            cert.pairs[0].u, cert.pairs[0].v, cert.pairs[0].rho + 1, cert.pairs[0].w
        ),))
        with pytest.raises(DecideError):
            validate_matching(f, bad)

    def test_rational_roots_are_not_vertices(self):
        f = IntPoly.of(13, -4, 1) * IntPoly.of(2, 1)
        g = build_symmetry_graph(f)
        assert len(g.vertices) == 2


@st.composite
def in_class_factors(draw):
    """Irreducible factors with exact roots: real and imaginary quadratics,
    cyclotomic polynomials, and Kummer-irreducible x^d - a."""
    kind = draw(st.sampled_from(["quadratic", "cyclotomic", "radical"]))
    if kind == "quadratic":
        b, c = draw(st.integers(-30, 30)), draw(st.integers(-200, 200))
        assume(b * b - 4 * c < 0 or perfect_power_root(b * b - 4 * c, 2) is None)
        return IntPoly.of(c, b, 1)
    if kind == "cyclotomic":
        return cyclotomic(draw(st.sampled_from([8, 10, 12, 14, 16, 18, 20, 22, 24])))
    d, a = draw(st.sampled_from([3, 4, 5, 6, 7, 8])), draw(st.integers(-200, 200))
    g = IntPoly((-a,) + (0,) * (d - 1) + (1,))
    assume(capelli_irreducible(d, a))
    assume(_exact_roots(g) is not None)  # the tower rejects Kummer-reducible a
    return g


def embedded(v) -> complex:
    """An exact root as a complex float, from its 64-bit enclosure."""
    emb = v.embed(64)
    return complex(float(emb.re.mid()), float(emb.im.mid()))


class TestRootApproximations:
    @settings(max_examples=80, deadline=None)
    @given(in_class_factors())
    def test_exact_roots_approximate_the_numeric_roots(self, g):
        """The exact roots of an in-class factor, embedded, are mpmath's
        roots at 60 digits, as a multiset, to 1e-12 relative."""
        import mpmath

        vals = _exact_roots(g)
        assert vals is not None and len(vals) == g.degree
        approx = [embedded(v) for v in vals]
        with mpmath.workdps(60):
            coeffs = [mpmath.mpf(c) for c in reversed(g.coeffs)]
            ref = [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=400)]
        for z in approx:
            k = min(range(len(ref)), key=lambda i: abs(ref[i] - z))
            assert abs(ref[k] - z) <= 1e-12 * abs(ref[k]), (g.coeffs, z, ref[k])
            ref.pop(k)

    def test_corpus_never_loads_mpmath(self, tmp_path):
        """No engine path loads mpmath, in a fresh interpreter: deciding and
        replaying the fixed-seed corpus of every family, factoring four
        degree-16 products of two octics, deciding a pair of products of
        two quadratics, refusing a pair of opaque quartics, matching the
        opaque roots of x^8 - 2 and of Phi5(x) * Phi5(1 - x), and `hgdecide
        canon` on the worked pair.  Factors come from the modular kernel,
        opaque roots are labels and enclosures are dyadic."""
        import json
        import os
        import subprocess
        import sys

        import hgdecide

        worked = tmp_path / "worked.json"
        worked.write_text(json.dumps(
            {"p": [13, -4, 1], "q": [5, -4, 1], "u0": "1", "t": "1/13", "problem": "membership"}
        ))
        script = (
            "import contextlib, io, sys\n"
            "from fractions import Fraction as F\n"
            "from hgdecide.certs import parse_instance, verify_certificate\n"
            "from hgdecide.cli import decide_document, main\n"
            "from hgdecide.config import DEFAULT_CONFIG\n"
            "from hgdecide.corpus import FAMILIES, generate_documents\n"
            "from hgdecide.equality import decide\n"
            "from hgdecide.errors import UnsupportedInstance\n"
            "from hgdecide.polys import IntPoly, factor_monic\n"
            "from hgdecide.recognize import MatchingCertificate, find_symmetric_matching\n"
            "from hgdecide.sequence import HGInstance, Problem\n"
            "for family in FAMILIES:\n"
            "    for d in generate_documents(7, 40, family):\n"
            "        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)\n"
            "        assert verify_certificate(cert) == [], (family, d)\n"
            f"for f in {[f.coeffs for f in TWO_OCTICS.values()]}:\n"
            "    assert [g.degree for g, _ in factor_monic(IntPoly(f))] == [8, 8], f\n"
            "i = HGInstance(IntPoly((2, 6, 1, -4, 1)), IntPoly((20, 18, -5, -4, 1)), F(1), F(3),"
            " Problem.MEMBERSHIP)\n"
            "decide(i)\n"
            "i = HGInstance(IntPoly((2, 0, 1, 0, 1)), IntPoly((3, 0, 1, 0, 1)), F(1), F(3),"
            " Problem.MEMBERSHIP)\n"
            "try:\n"
            "    decide(i)\n"
            "    raise AssertionError('opaque quartics decided')\n"
            "except UnsupportedInstance:\n"
            "    pass\n"
            f"for f in {[X8_MINUS_2.coeffs, ONE_FIELD_TWO_FACTORS['phi5(x)*phi5(1-x)'].coeffs]}:\n"
            "    assert isinstance(find_symmetric_matching(IntPoly(f)), MatchingCertificate), f\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['canon', {str(worked)!r}]) == 0\n"
            "print('mpmath' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(hgdecide.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.split() == ["False"]

    def test_no_engine_module_imports_mpmath(self):
        import pathlib

        import hgdecide

        modules = sorted(pathlib.Path(hgdecide.__file__).parent.glob("*.py"))
        assert len(modules) > 10
        for path in modules:
            for line in path.read_text().splitlines():
                assert not line.lstrip().startswith(("import mpmath", "from mpmath")), (path, line)


# products whose mirrored exact factors once sat in two towers of one
# field (or beside an opaque factor), so that matching them crashed
ONE_FIELD_TWO_FACTORS = {
    "phi5*phi10": cyclotomic(5) * cyclotomic(10),
    "phi7*phi14": cyclotomic(7) * cyclotomic(14),
    "phi9*phi18": cyclotomic(9) * cyclotomic(18),
    "x^6-4": IntPoly((-4,) + (0,) * 5 + (1,)),
    "x^10-4": IntPoly((-4,) + (0,) * 9 + (1,)),
    "phi5(x)*phi5(1-x)": IntPoly((5, -5, 5, 0, 1, -4, 6, -4, 1)),
}


class TestOneTowerPerField:
    @pytest.mark.parametrize("f", ONE_FIELD_TWO_FACTORS.values(), ids=ONE_FIELD_TWO_FACTORS.keys())
    def test_mirrored_factors_match(self, f):
        cert = find_symmetric_matching(f)
        assert isinstance(cert, MatchingCertificate)
        validate_matching(f, cert)
        assert 2 * len(cert.pairs) == f.degree

    @pytest.mark.parametrize(
        "f", [IntPoly((2, 0, 1, 0, 1)), ONE_FIELD_TWO_FACTORS["phi5(x)*phi5(1-x)"]],
        ids=["x^4+x^2+2", "phi5(x)*phi5(1-x)"],
    )
    def test_pairs_with_an_opaque_root_carry_no_offset(self, f):
        """x^4 + x^2 + 2 is opaque and mirrors itself at c = 0; Phi5(1 - x)
        is opaque and mirrors Phi5 at c = 1: partners found by root labels."""
        cert = find_symmetric_matching(f)
        assert isinstance(cert, MatchingCertificate)
        validate_matching(f, cert)
        graph = build_symmetry_graph(f)
        assert any(fr.values[0] is None for fr in graph.factors)
        for p in cert.pairs:
            exact = all(graph.factors[v.factor].values[v.root] is not None for v in (p.u, p.v))
            assert (p.w is not None) == exact

    def test_offset_needs_both_roots_exact(self):
        f = ONE_FIELD_TWO_FACTORS["phi5(x)*phi5(1-x)"]
        cert = find_symmetric_matching(f)
        p0 = cert.pairs[0]
        u_val = build_symmetry_graph(f).factors[p0.u.factor].values[p0.u.root]
        forged = dataclasses.replace(p0, w=u_val - p0.rho)
        with pytest.raises(DecideError, match="exact roots"):
            validate_matching(f, MatchingCertificate(f, (forged,) + cert.pairs[1:]))

    def test_validator_rejects_a_pair_of_opaque_roots_that_do_not_mirror(self):
        """x^4 + x^2 + 2 mirrors itself at c = 0, and its opaque roots are
        labelled so that the mirror pairs r0 with r1 and r2 with r3;
        pairing r0 with r2 passes the factor's mirror identity but is no
        edge."""
        f = IntPoly((2, 0, 1, 0, 1))
        p0, p1 = find_symmetric_matching(f).pairs
        swapped = (dataclasses.replace(p0, v=p1.u), dataclasses.replace(p1, u=p0.v))
        with pytest.raises(DecideError, match="not an edge"):
            validate_matching(f, MatchingCertificate(f, swapped))

    @pytest.mark.parametrize("n", [10, 14, 18, 22])
    def test_phi_2m_roots_in_order_and_in_the_tower_of_phi_m(self, n):
        vals = _exact_roots(cyclotomic(n))
        ref = [cmath.exp(2j * cmath.pi * k / n) for k in range(1, n) if math.gcd(k, n) == 1]
        assert [abs(embedded(v) - z) < 1e-12 for v, z in zip(vals, ref)] == [True] * len(ref)
        assert vals[0].tower == _exact_roots(cyclotomic(n // 2))[0].tower

    def test_x3_plus_2_roots_in_order_and_in_the_tower_of_x3_minus_2(self):
        vals = _exact_roots(IntPoly.of(2, 0, 0, 1))
        ref = [-cmath.exp(2j * cmath.pi * j / 3) * 2 ** (1 / 3) for j in range(3)]
        assert [abs(embedded(v) - z) < 1e-12 for v, z in zip(vals, ref)] == [True] * 3
        assert vals[0].tower == _exact_roots(IntPoly.of(-2, 0, 0, 1))[0].tower


# irreducible bases of the affine images g(+-x + h) below: opaque ones
# (x^4 + x^2 + 2 mirrors itself at 0; x^4 - x - 1 and x^3 + x + 3 do not
# mirror at all) and exact ones (Phi5, a Gaussian quadratic)
LABEL_BASES = [
    IntPoly((2, 0, 1, 0, 1)), X8_MINUS_2, IntPoly((-1, -1, 0, 0, 1)),
    IntPoly((3, 1, 0, 1)), cyclotomic(5), IntPoly((5, -4, 1)),
]
G = LABEL_BASES[0]
# g(x) g(x - 1) g(x - 2): each factor mirrors itself and both others
TRIANGLE = G * G.compose_linear(-1, 1) * G.compose_linear(-2, 1)


def affine_image(g: IntPoly, s: int, h: int) -> IntPoly:
    """The monic g(s*x + h) for s = +-1."""
    return g.compose_linear(h, s) * s**g.degree


def numeric_graph(f: IntPoly):
    """The root graph of f from mpmath `polyroots` at 60 digits: one vertex
    per irrational root and copy, an edge wherever u + v is within 1e-20 of
    an integer and u != v.  Returns the factor of each vertex and the
    center of each edge, keyed by both orientations."""
    import mpmath

    roots, factor = [], []
    with mpmath.workdps(60):
        irreducible = [(g, mult) for g, mult in factor_monic(f) if g.degree > 1]
        for fi, (g, mult) in enumerate(irreducible):
            coeffs = [mpmath.mpf(c) for c in reversed(g.coeffs)]
            for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=400):
                roots += [r] * mult
                factor += [fi] * mult
        centers = {}
        for i, j in itertools.permutations(range(len(roots)), 2):
            total = roots[i] + roots[j]
            k = mpmath.nint(mpmath.re(total))
            if abs(total - k) < 1e-20 and abs(roots[i] - roots[j]) > 1e-20:
                centers[i, j] = F(int(k), 2)
    return factor, centers


def labelled_graph(f: IntPoly):
    """`build_symmetry_graph` in the shape of `numeric_graph`."""
    graph = build_symmetry_graph(f)
    centers = {(j, i): rho for (i, j), rho in graph.edge_center.items()}
    return [v.factor for v in graph.vertices], {**graph.edge_center, **centers}


def isomorphic(one, two) -> bool:
    """Whether some bijection of vertices keeps factors, edges and centers,
    by backtracking over the vertices of `one` in order."""
    (factor1, center1), (factor2, center2) = one, two
    image = []

    def extend() -> bool:
        v = len(image)
        if v == len(factor1):
            return True
        for w in range(len(factor2)):
            if w not in image and factor2[w] == factor1[v] and all(
                center1.get((u, v)) == center2.get((image[u], w)) for u in range(v)
            ):
                image.append(w)
                if extend():
                    return True
                image.pop()
        return False

    return len(factor1) == len(factor2) and extend()


def graph_invariants(factor, centers) -> tuple:
    """Maximum matching size, degree multiset, component sizes and edge
    center multiset."""
    adj = [frozenset(j for i, j in centers if i == v) for v in range(len(factor))]
    seen, sizes = set(), []
    for v in range(len(adj)):
        if v not in seen:
            comp, todo = {v}, [v]
            while todo:
                new = adj[todo.pop()] - comp
                comp |= new
                todo += new
            seen |= comp
            sizes.append(len(comp))
    edge_centers = sorted(rho for (i, j), rho in centers.items() if i < j)
    return len(_maximum_matching(adj)), sorted(map(len, adj)), sorted(sizes), edge_centers


@st.composite
def affine_products(draw, bases=st.sampled_from(LABEL_BASES)):
    """Products of one to four images g(+-x + h) of the bases, of degree at
    most 16 (the factor search's cap)."""
    images = draw(st.lists(
        st.tuples(bases, st.sampled_from([1, -1]), st.integers(-3, 3)),
        min_size=1, max_size=4,
    ))
    assume(sum(g.degree for g, _, _ in images) <= 16)
    return functools.reduce(operator.mul, (affine_image(*im) for im in images))


# Phi_n for n <= 24 of degree 2 to 8
SMALL_CYCLOTOMICS = [cyclotomic(n) for n in range(3, 25) if cyclotomic(n).degree <= 8]


@st.composite
def random_base_products(draw):
    """Products of images of random bases: monic quadratics with a
    nonsquare discriminant, Phi_n, Capelli-irreducible x^d - a (d <= 8),
    and one random irreducible quartic drawn per example, opaque unless it
    happens to lie in a class."""
    quartic = IntPoly((*draw(st.lists(st.integers(-5, 5), min_size=4, max_size=4)), 1))
    assume(factor_monic(quartic) == [(quartic, 1)])

    @st.composite
    def base(draw):
        kind = draw(st.sampled_from(["quadratic", "cyclotomic", "radical", "quartic"]))
        if kind == "quadratic":
            b, c = draw(st.integers(-6, 6)), draw(st.integers(-30, 30))
            assume(b * b - 4 * c < 0 or perfect_power_root(b * b - 4 * c, 2) is None)
            return IntPoly.of(c, b, 1)
        if kind == "cyclotomic":
            return draw(st.sampled_from(SMALL_CYCLOTOMICS))
        if kind == "radical":
            d, a = draw(st.integers(2, 8)), draw(st.integers(-50, 50))
            assume(capelli_irreducible(d, a))
            return IntPoly((-a,) + (0,) * (d - 1) + (1,))
        return quartic

    return draw(affine_products(base()))


class TestLabelledGraph:
    @settings(max_examples=60, deadline=None)
    @given(random_base_products())
    def test_labelled_graph_on_random_bases(self, f):
        """The labelled graph is the numeric one, as below, on images of
        random bases."""
        labelled, numeric = labelled_graph(f), numeric_graph(f)
        assert graph_invariants(*labelled) == graph_invariants(*numeric)
        assert isomorphic(labelled, numeric)
        cert = find_symmetric_matching(f)
        if isinstance(cert, MatchingCertificate):
            validate_matching(f, cert)

    @settings(max_examples=60, deadline=None)
    @given(affine_products())
    def test_labelled_graph_is_the_numeric_graph(self, f):
        """Root labels give the graph that numeric roots give, up to an
        isomorphism that keeps factors and edge centers, and every perfect
        matching validates."""
        labelled, numeric = labelled_graph(f), numeric_graph(f)
        assert graph_invariants(*labelled) == graph_invariants(*numeric)
        assert isomorphic(labelled, numeric)
        cert = find_symmetric_matching(f)
        if isinstance(cert, MatchingCertificate):
            validate_matching(f, cert)

    def test_triangle_of_self_mirrored_opaque_factors(self):
        """In g(x) g(x - 1) g(x - 2), g = x^4 + x^2 + 2, g(x - 1) and g(x - 2)
        both take the roots of g negated, so their mirror at c = 3 is g's
        self-mirror.  Pairing equal labels there instead still gives a
        3-regular graph on 12 roots with the same invariants, but not the
        numeric one."""
        labelled, numeric = labelled_graph(TRIANGLE), numeric_graph(TRIANGLE)
        assert graph_invariants(*labelled)[:2] == (6, [3] * 12)
        assert graph_invariants(*labelled) == graph_invariants(*numeric)
        assert isomorphic(labelled, numeric)
        cert = find_symmetric_matching(TRIANGLE)
        assert isinstance(cert, MatchingCertificate) and len(cert.pairs) == 6
        validate_matching(TRIANGLE, cert)


@st.composite
def graphs(draw):
    """Adjacency sets of a random simple graph on at most 10 vertices."""
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [set() for _ in range(n)]
    for (u, v), k in zip(pairs, keep):
        if k:
            adj[u].add(v)
            adj[v].add(u)
    return [frozenset(a) for a in adj]


def brute_maximum_matching_size(adj) -> int:
    """Largest k such that some k edges are pairwise disjoint."""
    edges = [1 << u | 1 << v for u in range(len(adj)) for v in adj[u] if u < v]
    size = 0
    while any(
        bin(functools.reduce(operator.or_, c)).count("1") == 2 * (size + 1)
        for c in itertools.combinations(edges, size + 1)
    ):
        size += 1
    return size


class TestMatchingSearch:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_size_is_the_brute_force_maximum(self, adj):
        best = _maximum_matching(adj)
        used = [w for pair in best for w in pair]
        assert len(used) == len(set(used))
        assert all(v in adj[u] for u, v in best)
        size = brute_maximum_matching_size(adj)
        assert len(best) == size
        # find_symmetric_matching certifies exactly when 2 |best| = n
        assert (2 * len(best) == len(adj)) == (2 * size == len(adj))


class TestEdgeRule:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=8))
    def test_even_shifts_always_match(self, a, c):
        # (x-a)^2 + c: roots a +- i sqrt(c): always symmetric about a
        f = IntPoly.of(a * a + c, -2 * a, 1)
        cert = find_symmetric_matching(f)
        assert isinstance(cert, MatchingCertificate)
        assert cert.pairs[0].rho == a

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=-3, max_value=3), st.integers(min_value=2, max_value=7))
    def test_irreducible_quadratics_always_match(self, b, c):
        f = IntPoly.of(c + b * b, 2 * b, 1)  # disc = -4c < 0: irreducible
        cert = find_symmetric_matching(f)
        assert isinstance(cert, MatchingCertificate)
        p = cert.pairs[0]
        # reconstruct rho and w from the edge rule
        assert (2 * p.rho).denominator == 1
        u = p.w + p.rho if not isinstance(p.w, F) else None
        assert u is not None

    def test_even_polynomials_of_degree_two_or_more(self):
        for f in (cyclotomic(12), IntPoly.of(3, 0, 1), IntPoly((-2, 0, 0, 0, 1))):
            rho = detect_shifted_even(f)
            assert rho == 0
            assert isinstance(find_symmetric_matching(f), MatchingCertificate)


class TestShiftedEven:
    def test_examples(self):
        assert detect_shifted_even(IntPoly.of(1, 0, -1, 0, 1)) == 0
        assert detect_shifted_even(IntPoly.of(13, -4, 1)) == 2
        assert detect_shifted_even(IntPoly.of(-2, 0, 0, 1)) is None

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=-3, max_value=3),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=2),
    )
    def test_constructed_shifts_detected(self, rho, even_coeffs):
        # build g(x^2) then shift by rho: f(x) = g((x-rho)^2)
        g = QPoly(tuple(F(c) for c in even_coeffs) + (F(1),))
        f = g.substitute_square().compose_linear(F(-rho), F(1))
        fi = IntPoly(tuple(int(c) for c in f.coeffs))
        assert detect_shifted_even(fi) == rho


class TestShiftedSquare:
    def test_spec_quartics(self):
        w = recognize_shifted_square(IntPoly.of(-1, 0, -2, 0, 1))
        assert w and (w.rho, w.g) == (0, QPoly.of(-1, -2, 1))
        w2 = recognize_shifted_square(IntPoly.of(-2, 0, 4, -4, 1))
        assert w2 and (w2.rho, w2.g) == (1, QPoly.of(-1, -2, 1))

    def test_biquadratic_counterexamples_rejected(self):
        assert recognize_shifted_square(IntPoly((-17, 37, -16, -1, 1))) is None
        assert recognize_shifted_square(IntPoly((1044, 120, -71, -5, 1))) is None

    def test_generate_and_recover(self):
        rng = random.Random(17)
        hits = 0
        while hits < 40:
            rho = F(rng.randint(-8, 8), rng.choice([1, 2, 4]))
            deg = rng.choice([1, 2])
            if deg == 1:
                g = QPoly.of(F(rng.randint(1, 20)), 1)  # root strictly negative
            else:
                # force a negative real root: g(y) = (y + a)(y - b), a > 0
                a_ = F(rng.randint(1, 9))
                b_ = F(rng.randint(2, 9)) + F(1, 2)
                g = QPoly.of(-a_ * b_, a_ - b_, 1)
            f = g.substitute_square().compose_linear(-rho, F(1))
            w = recognize_shifted_square(f)
            assert w is not None and w.rho == rho and w.g == g
            hits += 1


class TestRadicalFamily:
    def test_eligible_quartic(self):
        r = check_radical_family(IntPoly((-2, 0, 0, 0, 1)))
        assert (r.kind, r.d, r.a, r.irreducible, r.eligible) == ("x_power_minus_a", 4, 2, True, True)

    def test_phi18_not_eligible(self):
        r = check_radical_family(IntPoly((1, 0, 0, -1, 0, 0, 1)))
        assert (r.kind, r.n, r.eligible) == ("cyclotomic", 18, False)

    def test_reducible_square(self):
        r = check_radical_family(IntPoly.of(-4, 0, 1))
        assert r.kind == "x_power_minus_a" and not r.irreducible

    def test_capelli_minus_four_case(self):
        r = check_radical_family(IntPoly.of(4, 0, 0, 0, 1))  # x^4 + 4 = x^4 - (-4)
        assert not r.irreducible

    def test_large_cube_radicand_is_reducible(self):
        b = 3 * 2**56 + 1  # x^6 - b^3 = (x^2 - b)(x^4 + b x^2 + b^2)
        r = check_radical_family(IntPoly.of(-(b**3), 0, 0, 0, 0, 0, 1))
        assert r.kind == "x_power_minus_a" and not r.irreducible

    def test_neither(self):
        assert check_radical_family(IntPoly.of(5, -4, 1)).kind == "neither"
