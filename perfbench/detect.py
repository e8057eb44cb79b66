"""Detection workloads: build the graph, run ``louvain()``, check the output.

One *request* generates one of the run's graphs (set-up) and detects
communities on it (detection), closed loop, one at a time.  A run
cycles through ``workload.graphs`` graphs derived from the seed, and
repeats requests until ``seconds`` have passed and each graph ran once.
With tracing, an untraced and a traced request alternate on the same
graph (at least ``MIN_TRACED_PAIRS`` pairs), so the tracing overhead is
measured on the same machine state.

Every request's output is checked, untimed:

* the labels are dense ``0..k-1`` on every input vertex;
* ``repro.core.modularity.modularity`` recounted on the labels equals
  the reported Q;
* the labels' digest equals the one recorded in ``digests.json`` for
  this workload and graph seed, or (when none is recorded) the first
  request's on the same graph;
* a traced request's labels equal the untraced ones, and its layer
  self times sum to its wall clock.

The recorded digests come from ``backend="serial"`` runs, so on the
process-backend workload a match also proves the backends agree; for an
unrecorded seed that workload runs once more with ``backend="serial"``,
untimed, and must return the same labels.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import layers
from measure import labels_digest, peak_rss_mb, percentile

GRAPH_SEED_STRIDE = 1000
#: Traced runs alternate untraced and traced requests, this many each.
MIN_TRACED_PAIRS = 2
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Layer self times must sum to the traced wall clock within this
#: absolute + relative slack (wrapper entry/exit is not covered).
ATTRIBUTION_SLACK_S = (2e-3, 1e-3)


def make_graph(workload, seed: int):
    import repro.graph.generators as generators

    # Looked up at call time, so a traced set-up runs the wrapper.
    return getattr(generators, workload.generator)(*workload.args, seed=seed)


def _warm_up(config) -> None:
    """Finish lazy imports and first-call set-up before anything is timed."""
    from repro.core.driver import louvain
    from repro.graph.generators import planted_partition

    louvain(planted_partition(10, 40, 0.3, 0.005, seed=0), config)


def check_output(graph, result, recount) -> list[str]:
    """Problems with one result: label shape/density and the Q recount."""
    labels = result.communities
    problems = []
    if labels.shape != (graph.num_vertices,):
        return [f"labels shape {labels.shape} != ({graph.num_vertices},)"]
    k = int(labels.max()) + 1 if labels.size else 0
    if labels.size and (labels.min() < 0
                        or np.unique(labels).size != k):
        problems.append("labels are not dense 0..k-1")
    q = recount(graph, labels, resolution=result.config.resolution)
    if abs(q - result.modularity) > 1e-12:
        problems.append(f"recounted Q {q!r} != reported {result.modularity!r}")
    return problems


def detect_once(graph, config, trace=None, targets=None):
    """``(louvain result, wall seconds)``; under ``trace``'s wrappers if given.

    The outermost wrapper charges ``louvain`` itself to the ``driver``
    layer, so its self time is what no other layer covers.
    """
    from repro.core.driver import louvain

    if trace is None:
        start = time.perf_counter()
        result = louvain(graph, config)
        return result, time.perf_counter() - start
    with layers.installed(trace, targets or layers.detection_targets()):
        detect = trace.wrap("driver", louvain)
        start = time.perf_counter()
        result = detect(graph, config)
        return result, time.perf_counter() - start


class _Request:
    __slots__ = ("graph_seed", "traced", "setup_s", "detect_s", "digest",
                 "modularity", "setup_trace", "detect_trace")


def graph_seeds(workload, seed: int) -> list[int]:
    """The run's distinct graphs: ``seed``, ``seed + 1000``, ...

    Several graphs per run keep one seed's graph structure (iteration
    count, color count) from setting the whole run's figures.
    """
    return [seed + GRAPH_SEED_STRIDE * i for i in range(workload.graphs)]


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro.core.driver import louvain
    from repro.core.modularity import modularity as recount

    config = workload.config()
    _warm_up(config)
    setup_targets = layers.setup_targets(workload.generator)
    detect_targets = layers.detection_targets()
    originals = layers.current(setup_targets) + layers.current(detect_targets)
    seeds = graph_seeds(workload, seed)
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload.name, {})
    first_digest: dict[int, str] = {}

    requests: list[_Request] = []
    problems: list[str] = []
    failed = 0
    started = time.perf_counter()
    while True:
        untraced = sum(not r.traced for r in requests)
        traced = len(requests) - untraced
        enough = (min(untraced, traced) >= MIN_TRACED_PAIRS if trace
                  else untraced >= len(seeds))
        if enough and time.perf_counter() - started >= seconds:
            break
        req = _Request()
        # Traced runs alternate untraced/traced on the same graph.
        req.traced = trace and traced < untraced
        req.graph_seed = seeds[untraced % len(seeds)] if not req.traced \
            else requests[-1].graph_seed
        req.setup_trace = layers.LayerTrace() if req.traced else None
        req.detect_trace = layers.LayerTrace() if req.traced else None
        calls_before = layers.calls

        with (layers.installed(req.setup_trace, setup_targets)
              if req.traced else nullcontext()):
            t0 = time.perf_counter()
            graph = make_graph(workload, req.graph_seed)
            req.setup_s = time.perf_counter() - t0
        result, req.detect_s = detect_once(graph, config, req.detect_trace,
                                           detect_targets)

        # -- untimed checks ------------------------------------------------
        req.digest = labels_digest(result.communities)
        req.modularity = result.modularity
        mine = check_output(graph, result, recount)
        expected = recorded.get(str(req.graph_seed))
        reference = expected or first_digest.setdefault(req.graph_seed,
                                                         req.digest)
        if req.digest != reference:
            mine.append(f"graph seed {req.graph_seed}: labels digest "
                        f"{req.digest[:12]} != "
                        f"{'recorded' if expected else 'first run'} "
                        f"{reference[:12]}")
        if req.traced:
            covered = req.detect_trace.total_s(layers.DETECT_LAYERS)
            absolute, relative = ATTRIBUTION_SLACK_S
            if abs(covered - req.detect_s) > absolute + relative * req.detect_s:
                mine.append(f"layer self times {covered:.4f}s != traced "
                            f"wall clock {req.detect_s:.4f}s")
        elif layers.calls != calls_before:
            mine.append(f"{layers.calls - calls_before} wrapper calls "
                        "during an untraced run")
        if mine:
            failed += 1
            problems.extend(mine)
        requests.append(req)
        del graph, result

    rss = peak_rss_mb()
    if (layers.current(setup_targets) + layers.current(detect_targets)
            != originals):
        problems.append("a wrapper is still installed after the run")
    # Recorded digests come from serial runs, so matching them already
    # proves backend equivalence; otherwise run the serial backend once.
    if (workload.overrides.get("backend", "serial") != "serial"
            and str(seeds[0]) not in recorded):
        serial = louvain(make_graph(workload, seeds[0]),
                         workload.config(backend="serial"))
        if labels_digest(serial.communities) != requests[0].digest:
            problems.append("labels differ from a backend='serial' run")

    plain = [r for r in requests if not r.traced]
    summary = {
        "attempted": len(requests),
        "failed": failed,
        "problems": problems,
        "graph_seeds": seeds,
        "digests_recorded": sum(str(s) in recorded for s in seeds),
        "requests": [
            {"graph_seed": r.graph_seed, "traced": r.traced,
             "setup_s": r.setup_s, "detect_s": r.detect_s,
             "modularity": r.modularity, "labels_digest": r.digest}
            for r in requests
        ],
    }
    if trace:
        summary["metrics"] = _layer_metrics(requests, plain)
        return summary
    latency = [r.setup_s + r.detect_s for r in plain]
    summary["metrics"] = {
        # Mean, not median: each graph is one share of the workload, and
        # the mean of a few requests varies less under machine noise.
        "detect_s": statistics.fmean(r.detect_s for r in plain),
        "setup_s": statistics.median(r.setup_s for r in plain),
        "modularity": statistics.median(r.modularity for r in plain),
        "peak_rss_mb": rss,
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_p90_ms": 1e3 * percentile(latency, 90),
        "jobs_per_s": len(latency) / sum(latency),
    }
    return summary


def _layer_metrics(requests, plain) -> dict:
    """Per-layer split of the median traced request, plus overhead."""
    traced = [r for r in requests if r.traced]
    by_detect = sorted(traced, key=lambda r: r.detect_s)
    by_setup = sorted(traced, key=lambda r: r.setup_s)
    mid_detect = by_detect[(len(by_detect) - 1) // 2]
    mid_setup = by_setup[(len(by_setup) - 1) // 2]
    out = {}
    out.update(mid_setup.setup_trace.metrics(layers.SETUP_LAYERS,
                                             layers.SETUP_COUNTS))
    out.update(mid_detect.detect_trace.metrics(layers.DETECT_LAYERS,
                                               layers.DETECT_COUNTS))
    overhead = (statistics.median(r.detect_s for r in traced)
                / statistics.median(r.detect_s for r in plain) - 1.0)
    out["trace.overhead_frac"] = overhead
    return out
