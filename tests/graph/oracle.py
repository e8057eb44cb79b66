"""Reference checks for differential testing of graph validation.

Verbatim copies of the checks that predate the single-key-sort rewrite:
``validate_oracle`` is the old ``CSRGraph._validate`` body (its symmetry
block pairs up sorted ``(min, max, w)`` triples after a three-key
``lexsort``), and ``multi_edge_oracle`` is the old canonical-orientation
duplicate pre-pass of ``from_edge_array``.  They are slow but obviously
faithful, which makes them the baseline the production checks must match:
same accept/reject verdict, same message.  Test-only: nothing under
``src/`` imports this.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import GraphStructureError


def validate_oracle(indptr, indices, weights) -> None:
    """Raise :class:`GraphStructureError` exactly where the old
    ``CSRGraph._validate`` did; return ``None`` for a valid graph."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    weights = np.asarray(weights)
    n = indptr.shape[0] - 1

    if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
        raise GraphStructureError(
            "indptr must start at 0 and end at len(indices) "
            f"(got {indptr[0]}..{indptr[-1]} for nnz={indices.shape[0]})"
        )
    if np.any(np.diff(indptr) < 0):
        raise GraphStructureError("indptr must be non-decreasing")
    if indices.size:
        if indices.min() < 0 or indices.max() >= n:
            raise GraphStructureError("neighbor ids out of range [0, n)")
        if not np.all(np.isfinite(weights)):
            raise GraphStructureError(
                "edge weights must be finite (NaN/inf would poison "
                "total_weight and every modularity computation)"
            )
        if not np.all(weights > 0):
            raise GraphStructureError(
                "edge weights must be strictly positive (paper §2)"
            )
    # Rows sorted, no duplicates within a row.
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if indices.size:
        same_row = row_of[1:] == row_of[:-1]
        if np.any(same_row & (indices[1:] <= indices[:-1])):
            raise GraphStructureError(
                "adjacency rows must be strictly increasing "
                "(sorted, duplicate-free neighbor lists)"
            )
    # Symmetry of structure and weights: the multiset of (min,max,w)
    # triples over non-loop entries must pair up exactly.
    loops = indices == row_of
    u = row_of[~loops]
    v = indices[~loops]
    w = weights[~loops]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.lexsort((w, hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    if lo.size % 2 != 0:
        raise GraphStructureError("adjacency is not symmetric")
    if lo.size:
        a = slice(0, None, 2)
        b = slice(1, None, 2)
        if (
            np.any(lo[a] != lo[b])
            or np.any(hi[a] != hi[b])
            or np.any(w[a] != w[b])
        ):
            raise GraphStructureError(
                "adjacency (or its weights) is not symmetric"
            )


def multi_edge_oracle(edges) -> None:
    """Raise the old pre-pass's multi-edge error for an ``(M, 2)`` edge
    array with a duplicated undirected pair; return ``None`` otherwise."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.lexsort((hi, lo))
    clo, chi = lo[order], hi[order]
    dup = (clo[1:] == clo[:-1]) & (chi[1:] == chi[:-1])
    if dup.any():
        e = int(np.flatnonzero(dup)[0])
        raise GraphStructureError(
            f"multi-edge detected between {int(clo[e])} and {int(chi[e])} "
            "(pass combine='sum'/'min'/'max' to merge)"
        )
