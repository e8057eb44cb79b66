"""Bitwise golden digests of graph construction.

Each digest is the SHA-256 of a graph's ``indptr`` and ``indices`` as
``<i8`` bytes followed by its ``weights`` bytes in their stored dtype.
The constants were recorded before CSR assembly, deduplication and
validation were rewritten around single-key sorts; every generator, the
edge-array and SciPy builders, :class:`GraphBuilder` and the MatrixMarket
reader must keep producing exactly these bytes (and so the same RNG
streams), not merely equal graphs up to float rounding.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import generators
from repro.graph.build import GraphBuilder, from_edge_array, from_scipy_sparse
from repro.graph.csr import CSRGraph
from repro.graph.io import read_matrix_market


def _digest(graph: CSRGraph) -> str:
    h = hashlib.sha256()
    h.update(graph.indptr.astype("<i8").tobytes())
    h.update(graph.indices.astype("<i8").tobytes())
    h.update(graph.weights.tobytes())
    return h.hexdigest()


# Small fixed-seed instances of every generator in generators.__all__.
_GENERATOR_CASES = {
    "caveman_power_law": lambda: generators.caveman_power_law(
        12, 2.5, 3, 9, 0.1, seed=2),
    "chung_lu": lambda: generators.chung_lu(
        generators.power_law_degrees(300, 2.3, 2, 40, seed=4), seed=5),
    "clique_chain": lambda: generators.clique_chain(5, 6),
    "complete_graph": lambda: generators.complete_graph(9),
    "cycle_graph": lambda: generators.cycle_graph(11),
    "grid_lattice": lambda: generators.grid_lattice((5, 4, 3), periodic=True),
    "karate_club": generators.karate_club,
    "lfr_like": lambda: generators.lfr_like(400, mu=0.2, seed=6)[0],
    "path_graph": lambda: generators.path_graph(10),
    "planted_partition": lambda: generators.planted_partition(
        6, 25, 0.3, 0.02, seed=7),
    "planted_partition_weighted": lambda: generators.planted_partition(
        5, 20, 0.4, 0.03, weight_range=(0.5, 2.0), seed=8),
    "random_geometric": lambda: generators.random_geometric(
        200, 0.12, seed=9),
    "relaxed_caveman": lambda: generators.relaxed_caveman(8, 7, 0.2, seed=10),
    "rmat": lambda: generators.rmat(9, 6, seed=11),
    "road_with_spokes": lambda: generators.road_with_spokes(
        30, 3, extra_chain_skip=4),
    "star_graph": lambda: generators.star_graph(12),
    "two_cliques_bridge": lambda: generators.two_cliques_bridge(5),
    "watts_strogatz": lambda: generators.watts_strogatz(150, 6, 0.2, seed=12),
}

GOLDEN_GENERATORS = {
    "caveman_power_law":
        "3380f0792c7c554474561e401758948d693ec2311421cbafb09e9855a339e9e5",
    "chung_lu":
        "5061ecc85ee5f02d17a2722fe30e926b1904e507b7c614e1786f3e49e5992c8f",
    "clique_chain":
        "ecccb601837f04ef858ff6dc1dc639fc65e03091532cda411e6b8cb95b3b3925",
    "complete_graph":
        "542128a888b9489d1ed9da833600f317b72ce180972278f729d744aa2106af59",
    "cycle_graph":
        "1f0c7f6b8a5421853f13d3efaa18bffea4b423c65925a5246aab2e8070ffda15",
    "grid_lattice":
        "67c53984c5d2ab1c7bb582a48e6847101ebbf9d155ce76f3863584e42e9565c3",
    "karate_club":
        "95bea065f8a770c1f6d8579d28fedf348f05ca3a47dd7a9b4698f2725a2a721c",
    "lfr_like":
        "26dca560f997c051b576afe10a4008e4b03a92c2cc61eeee9768d0ed4f99e0ed",
    "path_graph":
        "ee49e6cd1c7bd98099402adf5cdf6708a7d9cf962ab2c993037cf23da999d508",
    "planted_partition":
        "d411081e19fef2568bc5678746cbacce3ced263dfd6acd3f0058f49036ecd85d",
    "planted_partition_weighted":
        "cbc96be2287548f4197fa6318ba56eba69948261daff0e1a7a1a5a4a6a9a5a77",
    "random_geometric":
        "37b225476117eb10a8e1813982108d686cae7142daa35a119e0098efa30c64ba",
    "relaxed_caveman":
        "0934cab120c82f3d95e232766003310e205a21acc1165bb9e300b3979b3f3779",
    "rmat":
        "0b000057aa48a8ca38d91d60ec7e16887d41179d38cff392cd20af47f236d68a",
    "road_with_spokes":
        "52464b53c8bfe47c8f80368f8f540257a75b19b39d1e2506d90ef6c3537dcec5",
    "star_graph":
        "be8a896a4e8792a40099d95bafa506d5ff9908c579d4225219540e5706549e3d",
    "two_cliques_bridge":
        "112f715ef6ed08084cb4bced0b7ee1b6526a86492149cebd78645d26791b56ad",
    "watts_strogatz":
        "0b72556fc2227be15459a271d6d5b77b68af7d2ce5a5ad3baebaf7bd259df748",
}
# The perfbench graphs: rmat-131k's first graph and planted-100k's.
GOLDEN_RMAT_17_8 = (
    "6e47e0a0e80fe7a4c696690839ca84c0011753c80954e18577bf50bbc0064a5b"
)
GOLDEN_PLANTED_100K = (
    "19046d86ceb9a809e5b853931143b341fecd3f135eb4703e9cbfe221f5e7b131"
)
GOLDEN_COMBINE = {
    "sum": "14733ed02dad3f8a9dad06b1546de57d9a6f923849bd7ce68c8344832ed7d6c6",
    "min": "68a0d6e3cc34c8962d021bde33be22cf9efc80e939f606d07877e97af93f6e87",
    "max": "6312bade809a5de9da3e9c47ad83eb4481a33728bf89fade4a7cc6f87987ab47",
}
GOLDEN_SCIPY_ASYMMETRIC = {
    "sum": "27d3119643b938669cfc3e043bc5c117adb0fe471dcb315c50271d49d3eb47de",
    "max": "6b3340c75c548795e79906286b82b3b4c69795362d32016b175dbc65d1cc90c7",
}
GOLDEN_BUILDER = (
    "9eb5a21560138d54214fc846e15fec55ce6675692400a1cef4ad209f1dd19254"
)
GOLDEN_MATRIX_MARKET = (
    "f92205cceaaf1feb33d5a73e264c1f1d88d3b2cb24fd16f2e9864f314a3a39a8"
)


def test_every_generator_is_covered():
    names = {name.removesuffix("_weighted") for name in _GENERATOR_CASES}
    assert names == set(generators.__all__)


@pytest.mark.parametrize("name", sorted(_GENERATOR_CASES))
def test_generator_bytes(name):
    assert _digest(_GENERATOR_CASES[name]()) == GOLDEN_GENERATORS[name]


def test_rmat_17_8_bytes():
    assert _digest(generators.rmat(17, 8, seed=3)) == GOLDEN_RMAT_17_8


def test_planted_100k_bytes():
    g = generators.planted_partition(1000, 100, 0.12, 1e-5, seed=7)
    assert _digest(g) == GOLDEN_PLANTED_100K


def _multi_edge_input():
    """Pairs in both orientations plus repeated self-loops, random weights."""
    rng = np.random.default_rng(13)
    pairs = rng.integers(0, 25, size=(400, 2))
    loops = np.repeat(np.arange(0, 25, 3), 3)
    edges = np.concatenate([pairs, np.column_stack([loops, loops]),
                            pairs[:50, ::-1]])
    weights = rng.uniform(0.1, 10.0, size=edges.shape[0])
    return edges, weights


@pytest.mark.parametrize("combine", sorted(GOLDEN_COMBINE))
def test_from_edge_array_combine_bytes(combine):
    edges, weights = _multi_edge_input()
    g = from_edge_array(27, edges, weights, combine=combine)
    assert _digest(g) == GOLDEN_COMBINE[combine]


@pytest.mark.parametrize("combine", sorted(GOLDEN_SCIPY_ASYMMETRIC))
def test_from_scipy_sparse_asymmetric_bytes(combine):
    rng = np.random.default_rng(14)
    rows = rng.integers(0, 40, size=300)
    cols = rng.integers(0, 40, size=300)
    data = rng.uniform(0.5, 3.0, size=300)
    mat = sp.coo_array((data, (rows, cols)), shape=(40, 40))
    g = from_scipy_sparse(mat, combine=combine)
    assert _digest(g) == GOLDEN_SCIPY_ASYMMETRIC[combine]


def test_graph_builder_bytes():
    edges, weights = _multi_edge_input()
    b = GraphBuilder()
    b.add_edges(edges.tolist(), weights.tolist())
    assert _digest(b.build(combine="sum")) == GOLDEN_BUILDER


def test_matrix_market_bytes(tmp_path):
    rng = np.random.default_rng(15)
    rows = rng.integers(1, 31, size=120)
    cols = rng.integers(1, 31, size=120)
    vals = rng.integers(1, 9, size=120)
    lines = ["%%MatrixMarket matrix coordinate integer general",
             f"30 30 {rows.size}"]
    lines += [f"{r} {c} {v}" for r, c, v in zip(rows, cols, vals)]
    path = tmp_path / "g.mtx"
    path.write_text("\n".join(lines) + "\n")
    g = read_matrix_market(path, combine="max")
    assert _digest(g) == GOLDEN_MATRIX_MARKET
