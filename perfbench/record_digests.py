"""Record the label digest of each detection workload for given seeds.

    python3 perfbench/record_digests.py 0-10

Runs each detection workload once per graph of each run seed (see
``detect.graph_seeds``) with the workload's configuration on the serial
backend, and adds the digests to ``perfbench/digests.json``, keyed by
graph seed; the runner compares every result against them.  Regenerate
it only when a change is meant to alter the communities found.
"""

from __future__ import annotations

import json
import sys

from measure import ROOT, labels_digest

sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    import detect
    from repro.core.driver import louvain
    from workloads import WORKLOADS, Detection

    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(detect.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    for workload in WORKLOADS.values():
        if not isinstance(workload, Detection):
            continue
        # Serial, so a matching process-backend run proves equivalence.
        config = workload.config(backend="serial")
        per_seed = digests.setdefault(workload.name, {})
        wanted = (g for s in seeds for g in detect.graph_seeds(workload, s))
        for graph_seed in (g for g in wanted if str(g) not in per_seed):
            graph = detect.make_graph(workload, graph_seed)
            digest = labels_digest(louvain(graph, config).communities)
            per_seed[str(graph_seed)] = digest
            print(workload.name, graph_seed, digest[:12], flush=True)
    with open(detect.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
