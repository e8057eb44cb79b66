"""The vectorised first-fit step shared by the parallel colorers.

Both Jones–Plassmann and the speculative colorer give a whole batch of
vertices, in one step, the smallest color absent from their colored
neighbourhoods.  Every vertex in the batch reads the same colors snapshot
(Jacobi semantics), so the batch is one sort-unique over ``(vertex,
neighbour color)`` keys instead of a per-vertex loop.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import run_boundaries, unique_sorted


def first_fit(colors: np.ndarray, vertices: np.ndarray, owner: np.ndarray,
              nbr: np.ndarray) -> np.ndarray:
    """Smallest color not used by each vertex's colored neighbours.

    ``owner``/``nbr`` are the gathered CSR entries of ``vertices``' rows
    (``owner`` indexes ``vertices``, as from
    :func:`repro.core.workspace.gather_rows`).  ``colors`` is read only:
    uncolored neighbours (``-1``) and self-loops impose nothing.

    Returns the ``(len(vertices),)`` chosen colors.

    >>> colors = np.array([0, 1, -1, 0, -1])
    >>> first_fit(colors, np.array([2, 4]), np.array([0, 0, 0, 1]),
    ...           np.array([0, 1, 2, 3]))
    array([2, 1])
    """
    nbr_color = colors[nbr]
    keep = (nbr_color >= 0) & (nbr != vertices[owner])
    owner, nbr_color = owner[keep], nbr_color[keep]
    if owner.size == 0:
        return np.zeros(len(vertices), dtype=np.int64)
    width = int(nbr_color.max()) + 1
    owner, used = np.divmod(unique_sorted(owner * width + nbr_color), width)
    # Within each vertex's run the used colors ascend without repeats, so
    # they match their rank in the run exactly on the prefix 0, 1, ...;
    # the length of that prefix is the smallest missing color.
    starts = run_boundaries(owner)
    rank = np.arange(owner.size) - np.repeat(
        starts, np.diff(np.append(starts, owner.size))
    )
    return np.bincount(owner[used == rank], minlength=len(vertices))
