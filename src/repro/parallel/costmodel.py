"""Simulated-machine cost model for the scaling experiments.

Why this exists (see DESIGN.md §1): the paper's wall-clock results come
from C++/OpenMP on a 32-core Xeon X7560; pure CPython cannot reproduce
shared-memory scaling, so the repository reproduces the *algorithmic*
trajectory natively and replays its recorded work counters through a
machine model to obtain runtimes for any thread count ``p``.  The model
charges exactly the cost structure the paper describes:

* **clustering** (§5.6): each iteration scans its color sets one after
  another; a set with ``e`` CSR entries and ``v`` vertices runs as a
  parallel step of span ``(e·t_edge + v·t_vertex)/p_eff + t_sync`` where
  ``p_eff = min(p, ⌈v / grain⌉)`` — small color sets under-utilize threads,
  the §6.2 explanation for uk-2002's poor scaling; the per-iteration
  modularity recount adds one more O(M) parallel step; community-update
  contention grows as communities shrink (§6.2.1);
* **rebuild** (§5.5): a serial community-renumbering pass (the paper's
  stated serial bottleneck) plus a parallel edge pass whose lock costs —
  one per intra-community edge, two per inter-community edge — suffer
  contention when few communities remain (§6.2.1, Figs 8–9);
* **coloring**: a parallel pass over the edges plus one synchronization
  per Jones–Plassmann round (approximated by the color count).  The
  approximation undercounts on power-law graphs, where the priority DAG
  is much deeper than the palette is wide: the VF-merged ``rmat(16, 8)``
  colors with 77 colors in 346 rounds.  The model keeps the color count
  so the simulated Fig. 8 breakdowns stay comparable across records.

Calibration: the unit costs are rough per-operation latencies of the
paper's era hardware (tens of ns per edge traversal, ~100 ns per atomic,
tens of µs per barrier).  Absolute numbers are not expected to match the
paper's; the *shapes* — who scales, where the rebuild bottleneck bites,
what skewed color sets cost — are (EXPERIMENTS.md records both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.history import ConvergenceHistory, IterationRecord, PhaseRecord
from repro.utils.errors import ValidationError

__all__ = ["MachineModel", "SimulatedBreakdown", "absolute_speedup", "relative_speedup"]


@dataclass(frozen=True)
class SimulatedBreakdown:
    """Per-step simulated runtime of one pipeline run (the Fig. 8 buckets)."""

    clustering: float
    coloring: float
    rebuild: float

    @property
    def total(self) -> float:
        return self.clustering + self.coloring + self.rebuild

    def fractions(self) -> dict[str, float]:
        """Share of each bucket in the total (0 when the total is 0)."""
        t = self.total
        if t <= 0:
            return {"clustering": 0.0, "coloring": 0.0, "rebuild": 0.0}
        return {
            "clustering": self.clustering / t,
            "coloring": self.coloring / t,
            "rebuild": self.rebuild / t,
        }


@dataclass(frozen=True)
class MachineModel:
    """Unit costs of the simulated shared-memory machine.

    All times are in seconds per operation.  ``grain`` is the minimum
    number of vertices per thread below which extra threads go idle
    (chunking granularity); ``contention_beta`` scales how strongly atomic
    and lock operations degrade when many threads target few communities.

    Calibration note on ``t_sync``: a real 32-core OpenMP barrier costs a
    few microseconds, which against the paper's multi-million-edge inputs
    is negligible per parallel step.  The stand-ins are ~10³× smaller, so
    charging the literal barrier cost would make every colored step
    sync-bound in a way the original machine never was; ``t_sync`` is
    therefore scaled down by the same ~10³ factor to preserve the paper's
    sync-to-work *ratio* (the quantity the scaling shapes depend on).
    ``grain`` gets the same treatment: a 64-vertex color set here plays the
    role of a ~64 K-vertex set on the original inputs, which 32 threads
    split comfortably, so the granularity floor is 2 vertices rather than
    the literal cache-line-scale chunk of the real machine.
    """

    t_edge: float = 25e-9
    t_vertex: float = 60e-9
    t_sync: float = 5e-9
    t_lock: float = 120e-9
    t_serial_vertex: float = 80e-9
    t_color_edge: float = 30e-9
    grain: int = 2
    contention_beta: float = 0.15
    #: Memory-bandwidth roofline: graph kernels are streaming-bound, so a
    #: step's effective parallelism approaches (but never exceeds) this
    #: asymptote no matter how many threads it gets.  The X7560 testbed
    #: (4 sockets, 34.1 GB/s each) saturates around 16x, which is why the
    #: paper's speedups go sub-linear beyond ~8 threads and top out at
    #: ~16 at 32 threads (Fig. 7).  The approach is smooth (a soft
    #: minimum), so 16 -> 32 threads still gains a little, as in Fig. 7.
    bandwidth_cap: float = 18.0

    def _check_p(self, p: int) -> None:
        if p < 1:
            raise ValidationError("thread count p must be >= 1")

    def effective_parallelism(self, p: int, vertices: int) -> float:
        """Effective speedup of a ``vertices``-sized parallel step.

        Threads idle below the chunk granularity, and the bandwidth
        roofline caps streaming scalability (see ``bandwidth_cap``).
        """
        if vertices <= 0:
            return 1.0
        # Smooth roofline: p_eff -> p for small p, -> bandwidth_cap for
        # large p (soft minimum of order 4).
        soft = p / (1.0 + (p / self.bandwidth_cap) ** 4) ** 0.25
        return max(1.0, min(soft, float(math.ceil(vertices / self.grain))))

    def _contention(self, p: int, num_targets: int) -> float:
        """Multiplier on lock/atomic cost when ``p`` threads hit few targets.

        Concurrency past the bandwidth roofline does not add extra lock
        traffic (those threads are stalled on memory), so the crowd size is
        the *effective* parallelism.
        """
        if p <= 1:
            return 1.0
        pe = p / (1.0 + (p / self.bandwidth_cap) ** 4) ** 0.25
        crowding = min(1.0, pe / max(1, num_targets))
        return 1.0 + self.contention_beta * (pe - 1.0) * crowding

    # ------------------------------------------------------------------
    # Per-step costs
    # ------------------------------------------------------------------
    def iteration_time(self, record: IterationRecord, p: int) -> float:
        """Simulated time of one iteration (all color sets + Q tracking).

        Frontier pruning (records carrying ``active_vertices``/
        ``active_edges``) shrinks the charged sweep work by the active
        fraction: only the re-evaluated vertices and their CSR entries are
        scanned.  Records without the counters (pre-pruning histories)
        charge the full color-set work, preserving old replays.
        """
        self._check_p(p)
        v_frac = record.active_vertex_fraction
        e_frac = record.active_edge_fraction
        time = 0.0
        for vertices, edges in zip(record.color_set_vertices,
                                   record.color_set_edges):
            active_v = vertices * v_frac
            p_eff = self.effective_parallelism(p, int(active_v) or 1)
            work = edges * e_frac * self.t_edge + active_v * self.t_vertex
            time += work / p_eff + (self.t_sync if p > 1 else 0.0)
        # Modularity tracking: with the active counters present the update
        # is incremental — O(edges touched) instead of the full O(M)
        # recount pass (§5.5's pre-aggregation taken one step further).
        total_edges = record.edges_scanned * e_frac
        total_vertices = max(1, int(record.vertices_scanned * v_frac))
        p_eff = self.effective_parallelism(p, total_vertices)
        time += total_edges * self.t_edge / p_eff
        # Community-degree updates for the moved vertices behave like
        # atomics whose contention rises as communities dwindle (§6.2.1).
        time += (
            record.vertices_moved
            * self.t_lock
            * self._contention(p, record.num_communities)
            / self.effective_parallelism(p, record.vertices_moved)
        )
        if p > 1:
            time += self.t_sync
        return time

    def rebuild_time(self, phase: PhaseRecord, p: int) -> float:
        """Simulated time of the between-phase rebuild after ``phase``.

        Structure per §5.5: (i) serial renumbering over the surviving
        communities; (ii)+(iii) a parallel edge traversal whose lock
        operations contend on the community vertices.
        """
        self._check_p(p)
        k = phase.rebuild_num_communities
        serial = k * self.t_serial_vertex
        entries = 2 * phase.num_edges
        p_eff = self.effective_parallelism(p, phase.num_vertices)
        traverse = entries * self.t_edge / p_eff
        locks = (
            phase.rebuild_lock_ops
            * self.t_lock
            * self._contention(p, k)
            / p_eff
        )
        return serial + traverse + locks + (self.t_sync if p > 1 else 0.0)

    def coloring_time(self, phase: PhaseRecord, p: int) -> float:
        """Simulated coloring preprocessing time for one colored phase."""
        self._check_p(p)
        if not phase.colored:
            return 0.0
        entries = 2 * phase.num_edges
        p_eff = self.effective_parallelism(p, phase.num_vertices)
        rounds = max(1, phase.num_colors)
        return entries * self.t_color_edge / p_eff + (
            rounds * self.t_sync if p > 1 else 0.0
        )

    # ------------------------------------------------------------------
    # Whole-run simulation
    # ------------------------------------------------------------------
    def simulate(self, history: ConvergenceHistory, p: int) -> SimulatedBreakdown:
        """Replay a recorded run at thread count ``p``.

        The same history can be replayed at any ``p`` — the algorithmic
        trajectory is thread-count-invariant (§5.4), only the timing moves.
        """
        self._check_p(p)
        clustering = sum(self.iteration_time(r, p) for r in history.iterations)
        rebuild = sum(self.rebuild_time(ph, p) for ph in history.phases)
        coloring = sum(self.coloring_time(ph, p) for ph in history.phases)
        return SimulatedBreakdown(
            clustering=clustering, coloring=coloring, rebuild=rebuild
        )

    def simulate_serial(self, history: ConvergenceHistory) -> float:
        """Total simulated time of a run on one core (no barriers)."""
        return self.simulate(history, 1).total


def relative_speedup(times: dict[int, float], base_p: int = 2) -> dict[int, float]:
    """Speedup of each entry relative to the ``base_p``-thread time (Fig. 7 left)."""
    if base_p not in times:
        raise ValidationError(f"base thread count {base_p} missing from times")
    base = times[base_p]
    return {p: base / t for p, t in sorted(times.items())}


def absolute_speedup(times: dict[int, float], serial_time: float) -> dict[int, float]:
    """Speedup of each entry relative to the serial implementation (Fig. 7 right)."""
    if serial_time <= 0:
        raise ValidationError("serial_time must be positive")
    return {p: serial_time / t for p, t in sorted(times.items())}
