"""The benchmark's workloads: what each one runs.

Detection workloads build their graph from ``--seed`` and time
``louvain()`` on it in this process.  ``serve-small`` drives a separate
``repro serve`` process over HTTP.  Why each was chosen is stated in
``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: LouvainConfig fields whose defaults follow ``REPRO_*`` environment
#: variables.  Pinning them keeps a stray variable in the caller's
#: environment from changing what a run measures.
PINNED = {
    "array_backend": "numpy",
    "sanitize": False,
    "trace": False,
    "profile": False,
    "metrics_ring": None,
    "fault_plan": None,
}


@dataclass(frozen=True)
class Detection:
    """A graph generator call plus the ``LouvainConfig`` to detect with."""

    name: str
    generator: str
    args: tuple
    default_seed: int
    #: Distinct graphs per run (see ``detect.graph_seeds``).
    graphs: int
    #: ``HeuristicVariant`` value, or ``None`` for default ``LouvainConfig``.
    variant: "str | None" = None
    overrides: dict = field(default_factory=dict)

    def config(self, **extra):
        from repro.core.config import HeuristicVariant, LouvainConfig

        fields = {**PINNED, **self.overrides, **extra}
        if self.variant is None:
            return LouvainConfig(**fields)
        return HeuristicVariant(self.variant).config(**fields)

    def describe(self, seed: int) -> dict:
        return {
            "kind": "detection",
            "generator": self.generator,
            "args": list(self.args),
            "seed": seed,
            "graphs": self.graphs,
            "variant": self.variant or "baseline",
            "louvain_config": asdict(self.config()),
        }


SERVE_REF = "planted:10x40?p_in=0.3&p_out=0.005&seed={}"


@dataclass(frozen=True)
class Serve:
    """Open-loop HTTP load on a ``repro serve`` process."""

    name: str
    workers: int
    steady_rate: float
    burst_jobs: int
    bursts: int
    #: Distinct graph refs the jobs cycle through.
    refs: int
    default_seed: int = 0

    def ref(self, seed: int, index: int) -> str:
        # ``--seed`` offsets the ref seeds: different seeds serve different
        # graphs, while every run serves the same number of each.
        return SERVE_REF.format((seed + index) % self.refs)

    def describe(self, seed: int) -> dict:
        return {
            "kind": "serve",
            "refs": [self.ref(seed, i) for i in range(self.refs)],
            "workers": self.workers,
            "steady_rate_per_s": self.steady_rate,
            "burst_jobs": self.burst_jobs,
            "bursts": self.bursts,
            "wal": True,
            "seed": seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Detection(
            name="planted-100k",
            generator="planted_partition",
            args=(1000, 100, 0.12, 1e-5),
            default_seed=7,
            graphs=4,
        ),
        Detection(
            name="rmat-131k",
            generator="rmat",
            args=(17, 8),
            default_seed=3,
            graphs=4,
        ),
        Detection(
            name="rmat-65k-vfcolor",
            generator="rmat",
            args=(16, 8),
            default_seed=3,
            # Three, not four: each request takes ~8 s.
            graphs=3,
            variant="baseline+VF+Color",
            # The preset's 100K floor would skip coloring on this graph.
            overrides={"coloring_min_vertices": 4096,
                       "backend": "processes", "num_threads": 2},
        ),
        Serve(
            name="serve-small",
            workers=2,
            steady_rate=20.0,
            burst_jobs=60,
            bursts=3,
            refs=50,
        ),
    )
}
