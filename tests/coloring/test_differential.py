"""The parallel colorers against their round-by-round reference.

``jones_plassmann_coloring`` layers the priority DAG and
``speculative_coloring`` speculates with one vectorised first-fit step;
both must reproduce the per-vertex reference in :mod:`tests.coloring.oracle`
bitwise — colors and every ``work_log`` tuple.  The SHA-256 digests pin
the outputs themselves, so an edit to the oracle cannot hide a change in
colors.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.speculative import speculative_coloring
from repro.coloring.validate import color_set_partition
from repro.core.vf import vf_merge
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.utils.rng import as_rng

from tests.coloring.oracle import jones_plassmann_oracle, speculative_oracle
from tests.properties.strategies import graphs

SETTINGS = dict(max_examples=150, deadline=None)

PAIRS = [
    (jones_plassmann_coloring, jones_plassmann_oracle),
    (speculative_coloring, speculative_oracle),
]
PAIR_IDS = ["jones_plassmann", "speculative"]


@st.composite
def coloring_graphs(draw):
    """Property graphs with trailing isolated vertices and either weight
    dtype (weights must not matter to a colorer)."""
    g = draw(graphs(max_vertices=40, max_extra_edges=150))
    isolated = draw(st.integers(0, 3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    indptr = np.concatenate([g.indptr, np.full(isolated, g.indptr[-1])])
    return CSRGraph(indptr, g.indices, g.weights.astype(dtype))


def run(colorer, graph, seed):
    log: list = []
    colors = colorer(graph, seed=seed, work_log=log)
    return colors, log


def assert_same(new, ref):
    (colors, log), (ref_colors, ref_log) = new, ref
    assert colors.dtype == ref_colors.dtype
    np.testing.assert_array_equal(colors, ref_colors)
    assert log == ref_log


def digest(colors, log) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(colors, dtype="<i8").tobytes())
    h.update(np.asarray(log, dtype="<i8").reshape(-1).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def rmat12():
    return rmat(12, 8, seed=1)


@pytest.fixture(scope="module")
def rmat16_vf():
    """The graph ``rmat-65k-vfcolor`` colors in its first phase."""
    return vf_merge(rmat(16, 8, seed=3)).graph


class TestAgainstOracle:
    @pytest.mark.parametrize("colorer,oracle", PAIRS, ids=PAIR_IDS)
    @given(g=coloring_graphs(), seed=st.integers(0, 2**32 - 1))
    @settings(**SETTINGS)
    def test_random_graphs(self, colorer, oracle, g, seed):
        assert_same(run(colorer, g, seed), run(oracle, g, seed))

    @pytest.mark.parametrize("colorer,oracle", PAIRS, ids=PAIR_IDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_rmat12(self, rmat12, colorer, oracle, seed):
        assert_same(run(colorer, rmat12, seed), run(oracle, rmat12, seed))

    @pytest.mark.slow
    @pytest.mark.parametrize("colorer,oracle", PAIRS, ids=PAIR_IDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_rmat16_vf(self, rmat16_vf, colorer, oracle, seed):
        assert_same(run(colorer, rmat16_vf, seed),
                    run(oracle, rmat16_vf, seed))

    @pytest.mark.parametrize("colorer,oracle", PAIRS, ids=PAIR_IDS)
    def test_empty_graph(self, colorer, oracle):
        assert_same(run(colorer, CSRGraph.empty(0), 0),
                    run(oracle, CSRGraph.empty(0), 0))


#: Recorded from the round-by-round colorers before the vectorised
#: rewrite: SHA-256 over the int64 colors, then the flattened work_log.
DIGESTS = {
    ("jones_plassmann", "rmat12"): [
        "36878f779e0adf4aa031bdb156975acbc9ea99b2fc358e63be01ce8dddc9dc5f",
        "632bb0b7b21e730d66de2b46bd046707ab8fd5bfa49b4aa781ebb59e75fafc17",
        "e2234fd033dfcb18b12cff57369b4bdec15b4d7c2736c8eb3a7be06b8bbcd6a4",
        "6cfa345234060fa5332d72b2410e43e13dd2d07088afb561dca281b36f7bf655",
    ],
    ("jones_plassmann", "rmat16_vf"): [
        "ac709e5f43dce375fb60ba11489b9033d09ed603f2bc439b852954b7a91272cc",
        "03b0d5b99d12eb95ad91bd2441977c88c63756a4340c1407733785d631cbfd67",
        "9edb413bf3b512287b27ac7f08d8c2bbd725e9c5b94e1a6fa1440d1cc12dd275",
        "619dc3711584903cd15f3c728b3e5536028bd423d0b4e09a68679cf09dfecc62",
    ],
    ("speculative", "rmat12"): [
        "502bec9c692abeb66174be2b45e002d6c442bae7391ef2ac0bc6931ffc40332f",
        "aaa1077a027fcf5b958e04dd859a3ff4e7db4ae60d30978ca9898aa826ccee4b",
        "6556cf042c3767a0a88714e8386dcaaaa32237f11b6beb1abf8834549d571b66",
        "822ac47b96e5ef9127d6c2a835c276d83bfbfd0dfd853ebe1d11a3ef9bbe9e00",
    ],
    ("speculative", "rmat16_vf"): [
        "c02849047208477e42080bceedac5e15571199eb0ff930d0338b29936a5fa850",
        "e17e37665bb04ab491efe88d404fde5a499725d6fd0ea2f996af28dc84798a95",
        "32a174a78f2481e16c1423265aca1a41faecfb30efafddd19fd31b7df0a6cbae",
        "85486c8619194bc1ce4f5d6a1507a88c16d917dc5d324bd3538a7fbe95b614d1",
    ],
}
COLORERS = {"jones_plassmann": jones_plassmann_coloring,
            "speculative": speculative_coloring}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name,graph_name", sorted(DIGESTS))
def test_output_digest(request, name, graph_name, seed):
    graph = request.getfixturevalue(graph_name)
    assert digest(*run(COLORERS[name], graph, seed)) == \
        DIGESTS[name, graph_name][seed]


def first_fit_in_order(graph: CSRGraph, order) -> np.ndarray:
    """Serial first-fit greedy over an explicit visit order."""
    colors = np.full(graph.num_vertices, -1, dtype=np.int64)
    for v in order:
        nbrs, _ = graph.neighbors(v)
        used = {int(colors[u]) for u in nbrs if u != v and colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


class TestPriorityLayering:
    """The identity the layering relies on: a JP round is a Kahn layer of
    the priority DAG and a JP color is first-fit in priority order."""

    @given(g=coloring_graphs(), seed=st.integers(0, 2**32 - 1))
    @settings(**SETTINGS)
    def test_colors_are_greedy_in_descending_priority(self, g, seed):
        priority = as_rng(seed).permutation(g.num_vertices)
        order = np.argsort(-priority)
        np.testing.assert_array_equal(
            jones_plassmann_coloring(g, seed=seed),
            first_fit_in_order(g, order),
        )

    @given(g=coloring_graphs(), seed=st.integers(0, 2**32 - 1))
    @settings(**SETTINGS)
    def test_rounds_are_kahn_layers(self, g, seed):
        n = g.num_vertices
        priority = as_rng(seed).permutation(n)
        layer = np.zeros(n, dtype=np.int64)
        for v in np.argsort(-priority):
            nbrs, _ = g.neighbors(v)
            higher = [u for u in nbrs if priority[u] > priority[v]]
            layer[v] = 1 + max((layer[u] for u in higher), default=0)
        log: list = []
        jones_plassmann_coloring(g, seed=seed, work_log=log)
        sizes = np.bincount(layer, minlength=1)[1:]
        assert [c for c, _ in log] == sizes.tolist()


class TestColorSetPartition:
    @given(colors=st.lists(st.integers(0, 6), max_size=60))
    @settings(**SETTINGS)
    def test_classes_sorted_and_complete(self, colors):
        colors = np.asarray(colors, dtype=np.int64)
        sets = color_set_partition(colors)
        for part in sets:
            assert (np.diff(part) > 0).all()
            assert (colors[part] == colors[part[0]]).all()
        covered = np.concatenate(sets) if sets else np.zeros(0, np.int64)
        np.testing.assert_array_equal(np.sort(covered),
                                      np.arange(colors.size))
