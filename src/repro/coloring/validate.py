"""Coloring validation and color-class statistics.

The paper reports the number of colors and the relative standard deviation
of color-set sizes (943 colors with RSD 18.876 for uk-2002's first phase,
§6.2) and correlates skewed color sets with poor scaling; the same
statistics are computed here and consumed by the cost model.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.errors import ValidationError

__all__ = [
    "color_class_sizes",
    "color_set_partition",
    "color_size_rsd",
    "is_valid_coloring",
    "num_colors",
]


def _check_colors(graph: CSRGraph, colors) -> np.ndarray:
    colors = np.asarray(colors)
    if colors.shape != (graph.num_vertices,):
        raise ValidationError(
            f"colors must have shape ({graph.num_vertices},), got {colors.shape}"
        )
    if not np.issubdtype(colors.dtype, np.integer):
        raise ValidationError("colors must be integers")
    if colors.size and colors.min() < 0:
        raise ValidationError("colors must be non-negative")
    return colors.astype(np.int64, copy=False)


def is_valid_coloring(graph: CSRGraph, colors, k: int = 1) -> bool:
    """True when no two vertices within distance ``k`` share a color.

    Self-loops are ignored.  ``k > 1`` checks against the k-th power graph.
    """
    colors = _check_colors(graph, colors)
    if k > 1:
        from repro.coloring.distance_k import power_graph

        graph = power_graph(graph, k)
    row_of = graph.row_of_entry()
    non_loop = graph.indices != row_of
    return not bool(
        np.any(colors[row_of[non_loop]] == colors[graph.indices[non_loop]])
    )


def num_colors(colors) -> int:
    """Number of distinct colors used."""
    colors = np.asarray(colors)
    return int(np.unique(colors).size) if colors.size else 0


def color_class_sizes(colors) -> np.ndarray:
    """Size of each color class ``0..max_color`` (may contain zeros only
    when the coloring skipped color values, which our colorers never do)."""
    colors = np.asarray(colors)
    if colors.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(colors.astype(np.int64))


def color_size_rsd(colors) -> float:
    """Relative standard deviation of color-class sizes (§6.2's skew metric)."""
    sizes = color_class_sizes(colors).astype(np.float64)
    sizes = sizes[sizes > 0]
    if sizes.size == 0 or sizes.mean() == 0:
        return 0.0
    return float(sizes.std() / sizes.mean())


def color_set_partition(colors) -> list[np.ndarray]:
    """Vertex ids grouped by color, ascending color order.

    Each returned array is sorted, so sweeping the sets in order preserves
    the deterministic vertex-id ordering inside each parallel step.  The
    stable argsort already keeps each color's vertices in ascending id
    order, so the split needs no per-class sort.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size == 0:
        return []
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    boundaries = np.flatnonzero(np.diff(sorted_colors)) + 1
    return np.split(order, boundaries)
