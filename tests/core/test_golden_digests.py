"""Bitwise golden digests of the sweep and rebuild kernels.

Each digest is the SHA-256 of a run's label bytes (``<i8``) followed by its
modularity as a little-endian double (``struct.pack("<d", Q)``).  The
constants were recorded from the kernels as they stood before the hot-path
calls were rewritten as direct NumPy calls; any refactor of the sweep,
aggregation, modularity, batch or coarsen kernels must keep every one of
them — labels and Q identical to the last bit, not merely close.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro import louvain
from repro.core.batch import louvain_batch
from repro.graph.coarsen import coarsen
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition, two_cliques_bridge


def _graph() -> CSRGraph:
    return planted_partition(8, 40, 0.3, 0.01, seed=1)


def _digest(communities, q: float) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(communities).astype("<i8").tobytes())
    h.update(struct.pack("<d", q))
    return h.hexdigest()


# All four aggregation paths reach the same labels on this graph, and the
# float32 copy rounds to the same partition and the same float64 Q.
_PLANTED = "a3cdba60f169d07d3b45153c5f4d4d3ded68f631755e845f064eee2b140526e5"
GOLDEN_AGGREGATION = {
    "sort": _PLANTED,
    "bincount": _PLANTED,
    "matmul": _PLANTED,
    "auto": _PLANTED,
}
GOLDEN_FLOAT32 = _PLANTED
GOLDEN_RESOLUTION_HALF = (
    "d5133cc2a05ed3308d441199295a7a003ff4cbc1592ed8c72a80a5672c15821d"
)
GOLDEN_BATCH = [
    "61f4d9a0d099e914f02704db224eed49342bebc07deedd2b550fcea0ee11e0b4",
    "9927556e6e3ee30f7e4359ca193fb994e5dec7d628582c65c447e03bdd318cf7",
    "65ff380565de9dceb5c74395c1a3b68aa7947703b8fa4a05727b520cff90fe90",
    "9ea261457fed2c1fc30b37c39741005068070115d11a0ac04bcfe36d4480303a",
    "49b502a4526c1be80dd6bce960c1f2d5b8239807e63ec4784cf5b9eb4df03a52",
    "3da60490e0e272383fe1736348f0fe5d25d82ca4c6c57eabe29841c132984367",
]
# indptr/indices/weights bytes, then lock_ops (<q) and intra/inter (<dd).
GOLDEN_COARSEN = (
    "0f9ac9bdbff98a95938a74d84e64fba225d40ffeff485b4937e11442887338d8"
)


@pytest.mark.parametrize("aggregation", sorted(GOLDEN_AGGREGATION))
def test_louvain_aggregation_modes(aggregation):
    out = louvain(_graph(), aggregation=aggregation)
    assert _digest(out.communities, out.modularity) == \
        GOLDEN_AGGREGATION[aggregation]


def test_louvain_float32_graph():
    g = _graph()
    g32 = CSRGraph(g.indptr, g.indices, g.weights.astype(np.float32),
                   validate=False)
    out = louvain(g32)
    assert _digest(out.communities, out.modularity) == GOLDEN_FLOAT32


def test_louvain_resolution_half():
    out = louvain(_graph(), resolution=0.5)
    assert _digest(out.communities, out.modularity) == GOLDEN_RESOLUTION_HALF


def _batch_graphs() -> "list[CSRGraph]":
    return [
        two_cliques_bridge(3),
        planted_partition(4, 12, 0.5, 0.05, seed=2),
        two_cliques_bridge(6),
        planted_partition(3, 20, 0.4, 0.02, seed=3),
        planted_partition(5, 10, 0.6, 0.05, seed=4),
        two_cliques_bridge(4),
    ]


def test_louvain_batch():
    results = louvain_batch(_batch_graphs())
    assert [_digest(r.communities, r.modularity) for r in results] == \
        GOLDEN_BATCH


def test_coarsen():
    g = _graph()
    communities = louvain(g, max_phases=1).communities
    res = coarsen(g, communities)
    h = hashlib.sha256()
    for arr in (res.graph.indptr, res.graph.indices, res.graph.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(struct.pack("<q", res.lock_ops))
    h.update(struct.pack("<dd", res.intra_weight, res.inter_weight))
    assert h.hexdigest() == GOLDEN_COARSEN
