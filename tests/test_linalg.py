"""The sparse Eliminator against a plain dense-Fraction elimination."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.errors import DecideError
from hgdecide.linalg import Eliminator


def _dense_solve(vectors, v):
    """c with sum c_j * vectors[j] = v, by Gauss-Jordan elimination of the
    dense augmented matrix, or None when v is outside their span."""
    m, dim = len(vectors), len(v)
    rows = [[vec[k] for vec in vectors] + [v[k]] for k in range(dim)]
    pivots = []
    for c in range(m):
        r = len(pivots)
        p = next((i for i in range(r, dim) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(rows[i][m] for i in range(len(pivots), dim)):
        return None
    sol = [F(0)] * m
    for i, c in enumerate(pivots):
        sol[c] = rows[i][m]
    return sol


@st.composite
def sparse_vectors(draw, dim, max_size):
    # mostly zero coordinates, as offsets b*sqrt(d) are in a tower basis
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-6, 6))
    vector = st.tuples(st.lists(entry, min_size=dim, max_size=dim), st.integers(1, 12))
    return draw(st.lists(vector, max_size=max_size))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matches_dense_elimination(data):
    dim = data.draw(st.integers(1, 8))
    vectors = data.draw(sparse_vectors(dim, 12))
    elim, accepted = Eliminator(dim), []
    for nums, den in vectors:
        v = [F(a, den) for a in nums]
        independent = _dense_solve(accepted, v) is None
        assert elim.try_add(nums, den) == independent
        if independent:
            accepted.append(v)
    # the accepted vectors are independent, so coefficients are unique
    for nums, den in vectors + data.draw(sparse_vectors(dim, 6)):
        assert elim.express(nums, den) == _dense_solve(accepted, [F(a, den) for a in nums])


def test_dimension_mismatch_raises():
    elim = Eliminator(4)
    with pytest.raises(DecideError):
        elim.try_add((1, 0, 0))
