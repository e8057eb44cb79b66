"""CSR validation and construction errors against the pre-rewrite checks.

``CSRGraph._validate`` proves symmetry with one argsort of transposed
entry keys, and ``from_edge_array`` finds multi-edges in the same sort
that assembles the CSR.  Both must keep the verdicts and messages of the
older multi-key checks kept in :mod:`tests.graph.oracle`.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph.build import GraphBuilder, from_edge_array, from_scipy_sparse
from repro.graph.csr import NONFINITE_WEIGHT_MESSAGE, CSRGraph
from repro.utils.errors import GraphStructureError
from tests.graph.oracle import multi_edge_oracle, validate_oracle


def _verdict(check, *args) -> str | None:
    """The ``GraphStructureError`` message ``check`` raises, or ``None``."""
    try:
        check(*args)
    except GraphStructureError as exc:
        return str(exc)
    return None


@st.composite
def csr_arrays(draw):
    """A valid graph's CSR arrays: self-loops allowed, up to three isolated
    trailing vertices, float64 or float32 weights."""
    core = draw(st.integers(1, 12))
    n = core + draw(st.integers(0, 3))
    possible = [(i, j) for i in range(core) for j in range(i, core)]
    picked = draw(st.lists(st.sampled_from(possible), min_size=1,
                           max_size=min(len(possible), 30), unique=True))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(picked),
                            max_size=len(picked)))
    g = CSRGraph.from_edges(n, picked, weights)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return (np.array(g.indptr), np.array(g.indices),
            np.array(g.weights).astype(dtype))


def _remove(indptr, indices, weights, e):
    row = int(np.searchsorted(indptr, e, side="right")) - 1
    indptr = indptr.copy()
    indptr[row + 1:] -= 1
    return indptr, np.delete(indices, e), np.delete(weights, e)


def _insert(indptr, indices, weights, row, col, w):
    lo, hi = indptr[row], indptr[row + 1]
    pos = lo + int(np.searchsorted(indices[lo:hi], col))
    indptr = indptr.copy()
    indptr[row + 1:] += 1
    return (indptr, np.insert(indices, pos, col),
            np.insert(weights, pos, weights.dtype.type(w)))


@st.composite
def mutated(draw):
    """A graph's CSR arrays with at most one defect planted."""
    indptr, indices, weights = draw(csr_arrays())
    n = indptr.size - 1
    kind = draw(st.sampled_from(["none", "drop", "ulp", "move"]))
    e = draw(st.integers(0, indices.size - 1))
    if kind == "drop":
        indptr, indices, weights = _remove(indptr, indices, weights, e)
    elif kind == "ulp":
        weights = weights.copy()
        weights[e] = np.nextafter(weights[e], weights.dtype.type(np.inf))
    elif kind == "move":
        col, w = int(indices[e]), weights[e]
        indptr, indices, weights = _remove(indptr, indices, weights, e)
        row = draw(st.integers(0, n - 1))
        indptr, indices, weights = _insert(indptr, indices, weights, row,
                                           col, w)
    return kind, indptr, indices, weights


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_validation_matches_oracle(case):
    kind, indptr, indices, weights = case
    want = _verdict(validate_oracle, indptr, indices, weights)
    got = _verdict(CSRGraph, indptr, indices, weights)
    assert got == want
    if kind == "none":
        assert got is None


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_ulp_mirror_weight_is_rejected(dtype):
    w = np.array([1.0, 1.0], dtype=dtype)
    w[1] = np.nextafter(w[1], dtype(2.0))
    with pytest.raises(GraphStructureError,
                       match=r"adjacency \(or its weights\) is not symmetric"):
        CSRGraph([0, 1, 2], [1, 0], w)


def test_dropped_mirror_gets_the_odd_count_message():
    # Loops are their own mirrors, so the odd count ignores them.
    with pytest.raises(GraphStructureError,
                       match=r"^adjacency is not symmetric$"):
        CSRGraph([0, 2, 3, 3], [0, 1, 1], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("edges, pair", [
    ([(5, 2), (0, 3), (2, 5)], (2, 5)),                     # (u,v) + (v,u)
    ([(4, 4), (1, 2), (4, 4)], (4, 4)),                     # repeated loop
    ([(3, 1), (0, 2), (3, 1)], (1, 3)),                     # same orientation
    ([(8, 6), (9, 1), (6, 8), (1, 9), (2, 2), (2, 2)], (1, 9)),
])
def test_multi_edge_message_names_the_canonical_pair(edges, pair):
    msg = (f"multi-edge detected between {pair[0]} and {pair[1]} "
           "(pass combine='sum'/'min'/'max' to merge)")
    assert _verdict(multi_edge_oracle, edges) == msg
    assert _verdict(from_edge_array, 10, edges) == msg


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=25))
def test_multi_edge_message_matches_oracle(edges):
    assert _verdict(from_edge_array, 8, edges) == \
        _verdict(multi_edge_oracle, edges)


def test_sum_adds_duplicates_in_input_order():
    # Float addition does not associate: np.add.reduceat turns the pair's
    # weights [1e16, 1, 1] into 1e16 + 2, the reverse order into 1e16.
    # The merged weight must be the reduceat of the weights in input
    # order.  Enough other entries surround the pair that an unstable sort
    # would move its duplicates around.
    in_order = np.array([1e16, 1.0, 1.0])
    want = np.add.reduceat(in_order, [0])[0]
    assert want != np.add.reduceat(in_order[::-1], [0])[0]
    rng = np.random.default_rng(0)
    others = rng.integers(2, 500, size=(3000, 2))
    edges = np.concatenate([[(0, 1)], others[:1500], [(1, 0)], others[1500:],
                            [(0, 1)]])
    weights = np.ones(len(edges))
    weights[0] = in_order[0]
    g = from_edge_array(500, edges, weights, combine="sum")
    assert g.edge_weight(0, 1) == want
    assert g.edge_weight(1, 0) == want


_NONFINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("w", _NONFINITE, ids=["nan", "inf", "-inf"])
class TestNonFiniteWeights:
    def test_from_edges(self, w):
        with pytest.raises(GraphStructureError) as info:
            CSRGraph.from_edges(2, [(0, 1)], [w])
        assert str(info.value) == NONFINITE_WEIGHT_MESSAGE

    @pytest.mark.parametrize("combine", ["sum", "min", "max"])
    def test_from_edges_merged(self, w, combine):
        with pytest.raises(GraphStructureError) as info:
            CSRGraph.from_edges(2, [(0, 1), (1, 0)], [1.0, w],
                                combine=combine)
        assert str(info.value) == NONFINITE_WEIGHT_MESSAGE

    @pytest.mark.parametrize("rows, cols", [([0], [1]), ([0, 1], [1, 0])],
                             ids=["once", "both-triangles"])
    def test_from_scipy_sparse(self, w, rows, cols):
        mat = sp.coo_array(([w] * len(rows), (rows, cols)), shape=(2, 2))
        with pytest.raises(GraphStructureError) as info:
            from_scipy_sparse(mat)
        assert str(info.value) == NONFINITE_WEIGHT_MESSAGE

    def test_builder_rejects_eagerly(self, w):
        b = GraphBuilder(2)
        with pytest.raises(GraphStructureError) as info:
            b.add_edge(0, 1, w)
        assert str(info.value) == NONFINITE_WEIGHT_MESSAGE
        assert b.buffered_edges == 0
        with pytest.raises(GraphStructureError) as info:
            b.add_edges([(0, 1)], [w])
        assert str(info.value) == NONFINITE_WEIGHT_MESSAGE

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_csr_graph(self, w, dtype):
        with pytest.raises(GraphStructureError) as info:
            CSRGraph([0, 1, 2], [1, 0], np.array([w, w], dtype=dtype))
        assert str(info.value) == NONFINITE_WEIGHT_MESSAGE
