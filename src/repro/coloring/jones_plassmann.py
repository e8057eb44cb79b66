"""Jones–Plassmann parallel-semantics coloring.

The paper colors with the multithreaded algorithm of Catalyurek et al.
[12]; Jones–Plassmann is the canonical parallel independent-set colorer
with the same structure (random priorities, rounds of conflict-free
assignment) and serves as its stand-in here.

Each vertex draws a random priority.  In every round, all still-uncolored
vertices whose priority beats that of every uncolored neighbor color
themselves simultaneously with the smallest color unused in their
neighborhood.  The outcome depends only on the seed — not on scheduling —
mirroring the deterministic-given-priorities property of the real parallel
colorer.

The rounds are computed as a layering of the priority DAG (every edge
oriented toward its lower-priority endpoint).  A vertex is a candidate
exactly when all its higher-priority neighbours are colored, so its round
is its Kahn layer, and its color is the smallest one those neighbours do
not use — first-fit greedy in descending priority order.  Each vertex
keeps a count of uncolored higher-priority neighbours; a round colors the
zero-count frontier with one vectorised first-fit step and decrements the
counts across the frontier's lower-priority edges.  A round costs the
frontier's own CSR entries, so the whole coloring is O(n + M) work however
many rounds it takes (power-law graphs take hundreds: 346 on the
VF-merged ``rmat(16, 8)``).

The round structure is also what the simulated-machine cost model charges
for coloring time (Fig. 8's "coloring" share), so :func:`jones_plassmann_coloring`
reports the number of rounds and per-round work via its optional
``work_log``.
"""

from __future__ import annotations

import numpy as np

from repro.coloring._first_fit import first_fit
from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import snapshot_kernel
from repro.utils.rng import as_rng

__all__ = ["jones_plassmann_coloring"]


@snapshot_kernel("graph")
def jones_plassmann_coloring(
    graph: CSRGraph,
    *,
    seed=None,
    work_log: list | None = None,
) -> np.ndarray:
    """Color ``graph`` with Jones–Plassmann random-priority rounds.

    Parameters
    ----------
    seed:
        Seed for the random priorities (ties broken by vertex id, so the
        result is fully deterministic given the seed).
    work_log:
        Optional list; when given, one ``(candidates, live_entries)``
        tuple is appended per round for the cost model, where
        ``live_entries`` counts the non-loop CSR entries between two
        still-uncolored vertices at the start of the round.

    Returns
    -------
    ``(n,)`` color array, colors in ``0..C-1``.
    """
    from repro.core.workspace import gather_rows  # local import: avoid cycle

    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rng = as_rng(seed)
    # Random priorities; vertex id breaks ties deterministically.
    priority = rng.permutation(n).astype(np.int64)

    indices = graph.indices
    row_of = graph.row_of_entry()
    own = priority[row_of]
    nbr_priority = priority[indices]
    # Uncolored higher-priority neighbours per vertex (self-loops tie).
    waiting = np.bincount(row_of[nbr_priority > own], minlength=n)
    live = int(np.count_nonzero(nbr_priority != own))
    del row_of, own, nbr_priority

    frontier = np.flatnonzero(waiting == 0)
    while frontier.size:
        if work_log is not None:
            work_log.append((int(frontier.size), live))
        positions, owner = gather_rows(graph, frontier)
        nbr = indices[positions]
        # The frontier is independent and every higher-priority neighbour
        # is colored, so one snapshot first-fit step colors it exactly.
        colors[frontier] = first_fit(colors, frontier, owner, nbr)
        # Every lower-priority neighbour is still uncolored: each such
        # edge leaves the live set in both directions.
        lower = nbr[priority[nbr] < priority[frontier][owner]]
        live -= 2 * lower.size
        lower, hits = np.unique(lower, return_counts=True)
        waiting[lower] -= hits
        frontier = lower[waiting[lower] == 0]
    return colors
