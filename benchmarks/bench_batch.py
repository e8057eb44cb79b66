"""Multi-graph batch benchmark (machine-readable ``BENCH_batch.json``).

Times the same workload two ways — a Python loop calling ``louvain``
once per graph, and a single ``louvain_batch`` call that packs every
graph into one block-diagonal union and sweeps them together — on a
fleet of small planted-partition graphs.  This is the regime the batch
tier exists for: each graph is far too small to amortize per-sweep
kernel overhead on its own, so the loop pays fixed NumPy dispatch and
workspace costs ``B`` times per iteration while the batch pays them
once.

Before timing, the script asserts that both paths produce identical
communities and modularity for every graph; the batch changes
throughput, never results.  Run as a script
(``python benchmarks/bench_batch.py``) it writes ``BENCH_batch.json``
at the repository root with one record per execution mode, each
stamped with the :func:`repro.obs.regress.provenance` fields
(``commit``, ``date``, ``backend``).
"""

import json
import os
import time

import numpy as np

from repro.obs.regress import provenance

#: Default fleet: well above the 32-graph acceptance floor, small enough
#: that the whole suite runs in a few seconds.
DEFAULT_NUM_GRAPHS = 48


def build_graphs(count, seed=0):
    """``count`` small planted-partition graphs (4 blocks × 12 vertices)."""
    from repro.graph.generators import planted_partition

    return [planted_partition(4, 12, 0.5, 0.03, seed=seed + i)
            for i in range(count)]


def _best_of(fn, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, out


def run_batch_suite(num_graphs=DEFAULT_NUM_GRAPHS, repeats=3, seed=0,
                    log=print):
    """Time loop vs batch on ``num_graphs`` graphs; return JSON records.

    Each record carries ``mode`` (``"per-graph-loop"`` or ``"batched"``),
    the fleet shape (``num_graphs``, ``n_total``, ``M_total``), the
    best-of-``repeats`` wall clock, the mean achieved modularity, and the
    provenance stamp.  The batched record additionally carries
    ``speedup`` over the loop.
    """
    from repro import LouvainConfig, louvain, louvain_batch

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    graphs = build_graphs(num_graphs, seed=seed)
    cfg = LouvainConfig(sanitize=False, trace=False)

    def loop():
        return [louvain(g, cfg) for g in graphs]

    def batched():
        return louvain_batch(graphs, cfg)

    # Warm-up both paths and pin the equivalence contract before timing.
    loop_results, batch_results = loop(), batched()
    for i, (single, batch) in enumerate(zip(loop_results, batch_results)):
        assert np.array_equal(single.communities, batch.communities), i
        assert single.modularity == batch.modularity, i

    loop_seconds, loop_results = _best_of(loop, repeats)
    batch_seconds, batch_results = _best_of(batched, repeats)

    meta = {
        "num_graphs": num_graphs,
        "n_total": sum(g.num_vertices for g in graphs),
        "M_total": sum(g.num_edges for g in graphs),
        **provenance(repo_root),
    }
    q_mean = float(np.mean([r.modularity for r in batch_results]))
    records = [
        {"mode": "per-graph-loop", **meta, "seconds": loop_seconds,
         "Q_mean": q_mean},
        {"mode": "batched", **meta, "seconds": batch_seconds,
         "Q_mean": q_mean, "speedup": loop_seconds / batch_seconds},
    ]
    log(f"{num_graphs} graphs (n_total={meta['n_total']} "
        f"M_total={meta['M_total']}): loop={loop_seconds * 1e3:.1f}ms "
        f"batched={batch_seconds * 1e3:.1f}ms "
        f"speedup={loop_seconds / batch_seconds:.2f}x")
    return records


def main(argv=None):
    """CLI entry point: write ``BENCH_batch.json`` at the repo root."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="output path (default: <repo>/BENCH_batch.json)")
    parser.add_argument("--num-graphs", type=int, default=DEFAULT_NUM_GRAPHS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args(argv)
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_path = opts.out or os.path.join(repo_root, "BENCH_batch.json")
    records = run_batch_suite(num_graphs=opts.num_graphs,
                              repeats=opts.repeats, seed=opts.seed)
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path} ({len(records)} records)")


if __name__ == "__main__":
    main()
