"""Reference colorers for differential testing.

Verbatim copies of the round-by-round ``jones_plassmann_coloring`` and
``speculative_coloring`` bodies that predate the vectorised first-fit
kernel: every round rescans the live edges through full-length masks and
picks each vertex's color with a per-vertex Python ``set`` loop.  They are
slow but obviously faithful to the round semantics, which makes them the
baseline the production colorers must match bitwise, colors and
``work_log`` alike.  Test-only: nothing under ``src/`` imports this.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import as_rng


def jones_plassmann_oracle(
    graph: CSRGraph,
    *,
    seed=None,
    work_log: list | None = None,
) -> np.ndarray:
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rng = as_rng(seed)
    # Random priorities; vertex id breaks ties deterministically.
    priority = rng.permutation(n).astype(np.int64)

    indptr = graph.indptr
    indices = graph.indices
    row_of = graph.row_of_entry()
    non_loop = indices != row_of
    src_all = row_of[non_loop]
    dst_all = indices[non_loop]

    uncolored = colors < 0
    while uncolored.any():
        # A vertex is a candidate when every *uncolored* neighbor has lower
        # priority.  Compute the max uncolored-neighbor priority per vertex.
        live_edge = uncolored[src_all] & uncolored[dst_all]
        src = src_all[live_edge]
        dst = dst_all[live_edge]
        max_nbr = np.full(n, -1, dtype=np.int64)
        if src.size:
            np.maximum.at(max_nbr, src, priority[dst])
        candidates = np.flatnonzero(uncolored & (priority > max_nbr))
        if work_log is not None:
            work_log.append((int(candidates.size), int(src.size)))
        # Candidates form an independent set among uncolored vertices, so
        # they can all take their smallest feasible color simultaneously;
        # colored neighbors constrain the choice.
        for v in candidates.tolist():
            lo, hi = indptr[v], indptr[v + 1]
            nbr_colors = colors[indices[lo:hi]]
            used = set(nbr_colors[nbr_colors >= 0].tolist())
            c = 0
            while c in used:
                c += 1
            colors[v] = c
        uncolored = colors < 0
    return colors


def speculative_oracle(
    graph: CSRGraph,
    *,
    seed=None,
    work_log: list | None = None,
    max_rounds: int = 10_000,
) -> np.ndarray:
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rng = as_rng(seed)
    priority = rng.permutation(n).astype(np.int64)

    indptr, indices = graph.indptr, graph.indices
    row_of = graph.row_of_entry()
    non_loop = indices != row_of
    src_all = row_of[non_loop]
    dst_all = indices[non_loop]

    pending = np.arange(n, dtype=np.int64)
    for _ in range(max_rounds):
        if pending.size == 0:
            break
        # --- speculation: every pending vertex picks its mex color from
        # the *snapshot* (stale reads allowed — that's the speculation).
        snapshot = colors.copy()
        edges_scanned = 0
        for v in pending.tolist():
            lo, hi = indptr[v], indptr[v + 1]
            nbrs = indices[lo:hi]
            edges_scanned += hi - lo
            used = set(
                int(c) for c in snapshot[nbrs[nbrs != v]].tolist() if c >= 0
            )
            c = 0
            while c in used:
                c += 1
            colors[v] = c
        if work_log is not None:
            work_log.append((int(pending.size), int(edges_scanned)))
        # --- conflict detection (vectorized over all non-loop entries):
        # adjacent equal colors where both endpoints were just colored.
        in_pending = np.zeros(n, dtype=bool)
        in_pending[pending] = True
        live = in_pending[src_all] | in_pending[dst_all]
        src = src_all[live]
        dst = dst_all[live]
        clash = colors[src] == colors[dst]
        if not clash.any():
            break
        # The lower-priority endpoint of each clashing edge recolors.
        a = src[clash]
        b = dst[clash]
        loser = np.where(priority[a] < priority[b], a, b)
        pending = np.unique(loser)
        colors[pending] = -1
    return colors
