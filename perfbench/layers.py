"""Per-layer timing from outside the program.

Nothing under ``src/`` is changed.  For a traced run the benchmark
replaces the public functions at the module (or class) attributes their
callers look up with timing wrappers, and puts the originals back
afterwards.  Each wrapper charges its call's *self time* (its wall clock
minus the wall clock of wrapped calls nested inside it) to one layer and
bumps that layer's work counters from the call's arguments and result,
so the self times of all layers add up to the wall clock of the
outermost wrapped call.

Wrappers record only in the process that installed them: the process
backend forks sweep workers that inherit the wrapped modules, and those
calls pass straight through.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Every wrapper call in this process, traced or not.  The runner reads
#: it around untraced runs to prove no wrapper was left installed.
calls = 0

#: Layer -> the metric its self time is reported under.
TIME_METRICS = {
    "gen": "gen.s",
    "csr": "csr.s",
    "vf": "vf.s",
    "coloring": "coloring.s",
    "plan": "plan.s",
    "aggregate": "aggregate.s",
    "select": "select.s",
    "commit": "commit.s",
    "parallel": "parallel.dispatch_s",
    "phase": "phase.self_s",
    "rebuild": "rebuild.s",
    "modularity": "modularity.s",
    "driver": "driver.self_s",
}
SETUP_LAYERS = ("gen", "csr")
DETECT_LAYERS = tuple(k for k in TIME_METRICS if k not in SETUP_LAYERS)

SETUP_COUNTS = ("csr.entries",)
DETECT_COUNTS = (
    "vf.merged",
    "coloring.calls",
    "coloring.colors",
    "plan.builds",
    "plan.entries",
    "aggregate.pairs",
    "aggregate.mode.sort",
    "aggregate.mode.bincount",
    "aggregate.mode.matmul",
    "sweep.calls",
    "commit.moves",
    "parallel.dispatches",
    "phase.iterations",
    "rebuild.entries_in",
    "rebuild.entries_out",
)


class LayerTrace:
    """Self time per layer and work counts, filled by installed wrappers.

    ``delay`` maps a layer to seconds slept inside each of its calls —
    the attribution self-test's planted slowdown.
    """

    def __init__(self, delay: "dict[str, float] | None" = None):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.delay = dict(delay or {})
        self.pid = os.getpid()
        # One child-time accumulator per open wrapped call.
        self._stack: list[float] = []

    def wrap(self, layer: str, fn, count=None):
        def wrapper(*args, **kwargs):
            global calls
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            calls += 1
            stack = self._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if layer in self.delay:
                    time.sleep(self.delay[layer])
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(self.counts, args, out)
            return out

        return functools.wraps(fn)(wrapper)

    def metrics(self, layers, counts) -> dict[str, float]:
        """Self time of each of ``layers`` plus each of ``counts``."""
        out = {TIME_METRICS[layer]: self.self_s.get(layer, 0.0)
               for layer in layers}
        out.update((name, self.counts.get(name, 0)) for name in counts)
        return out

    def total_s(self, layers) -> float:
        return sum(self.self_s.get(layer, 0.0) for layer in layers)


def _bump(name, value_of):
    def count(counts, args, out):
        counts[name] += value_of(args, out)
    return count


def _count_all(*counters):
    def count(counts, args, out):
        for counter in counters:
            counter(counts, args, out)
    return count


def _count_aggregate(counts, args, out):
    counts["aggregate.pairs"] += int(out[0].size)
    counts[f"aggregate.mode.{out[3]}"] += 1


def detection_targets():
    """``(owner, attribute, layer, counter)`` for every detection layer."""
    import repro.core.driver as driver
    import repro.core.phase as phase
    import repro.core.sweep as sweep
    import repro.core.workspace as workspace
    from repro.parallel.process_backend import ProcessBackend

    # ``repro.core`` re-exports the function under the submodule's name,
    # so the module itself is only reachable through sys.modules.
    modularity_module = sys.modules["repro.core.modularity"]
    count_plan = _count_all(
        _bump("plan.builds", lambda a, o: 1),
        _bump("plan.entries", lambda a, o: int(o.num_entries)))
    return [
        (driver, "run_phase", "phase",
         _bump("phase.iterations", lambda a, o: len(o.records))),
        (driver, "init_state", "phase", None),
        (driver, "coarsen", "rebuild", _count_all(
            _bump("rebuild.entries_in", lambda a, o: int(a[0].indices.size)),
            _bump("rebuild.entries_out",
                  lambda a, o: int(o.graph.indices.size)))),
        (driver, "vf_merge", "vf",
         _bump("vf.merged", lambda a, o: int(o.num_merged))),
        (driver, "jones_plassmann_coloring", "coloring", _count_all(
            _bump("coloring.calls", lambda a, o: 1),
            _bump("coloring.colors",
                  lambda a, o: int(o.max()) + 1 if o.size else 0))),
        (phase, "compute_targets", "select",
         _bump("sweep.calls", lambda a, o: 1)),
        (phase, "apply_moves_tracked", "commit",
         _bump("commit.moves", lambda a, o: int(o.num_moved))),
        (sweep, "aggregate_pairs", "aggregate", _count_aggregate),
        (workspace.SweepWorkspace, "plan", "plan", None),
        (workspace, "build_plan", "plan", count_plan),
        # Workspace-free sweeps (tiny color sets on the process backend)
        # build their plan through sweep's own import of the function.
        (sweep, "build_plan", "plan", count_plan),
        (ProcessBackend, "sweep_targets", "parallel",
         _bump("parallel.dispatches", lambda a, o: 1)),
        (modularity_module, "modularity", "modularity", None),
    ]


def setup_targets(generator: str):
    """Targets for graph set-up: the generator and CSR construction."""
    import repro.graph.generators as generators
    from repro.graph.csr import CSRGraph

    return [
        (generators, generator, "gen", None),
        (CSRGraph, "__init__", "csr",
         _bump("csr.entries", lambda a, o: int(a[0].indices.size))),
    ]


def current(targets) -> list:
    """The objects installed at each target attribute right now."""
    return [vars(owner)[name] for owner, name, _, _ in targets]


@contextmanager
def installed(trace: LayerTrace, targets):
    """Install ``trace``'s wrappers at ``targets``; restore on exit."""
    saved = []
    try:
        for owner, name, layer, count in targets:
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, trace.wrap(layer, original, count))
        yield trace
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
