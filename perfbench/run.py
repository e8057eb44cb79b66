"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload planted-100k --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --all            # every workload, default seeds

Untraced (``--trace 0``) runs report the end-to-end metrics; traced
runs (``--trace 1``) report the per-layer split.  The metric names and
units are the ones declared in ``BENCHMARK.json``.  The last line of
standard output for a workload is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record (metadata, per-request timings, any problems found).
With ``--all`` each workload prints its own pair, last one last.
Exits non-zero, printing no result, when the program under test is not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

from measure import ROOT


def _declared(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: "int | None", seconds: float,
                 trace: bool) -> dict:
    """Run one workload; returns the printed result plus its record."""
    import detect
    import serve_load
    from measure import metadata
    from workloads import WORKLOADS, Serve

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    serve = isinstance(workload, Serve)
    summary = (serve_load if serve else detect).run(
        workload, seed, seconds, trace)

    # Per-layer metrics of the other kind of workload are not exercised
    # here and read 0; a missing metric of this workload's kind is a bug.
    metrics = {}
    for metric, unit in _declared(trace).items():
        value = summary["metrics"].get(metric)
        if value is None:
            if not trace or metric.startswith("serve.") == serve:
                raise KeyError(f"{name} did not produce {metric}")
            value = 0.0
        metrics[metric] = {"value": value, "unit": unit}
    record = {
        **metadata(name, workload.describe(seed), seed, trace),
        **{k: v for k, v in summary.items() if k != "metrics"},
    }
    result = {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return {"result": result, "record": record}


def _stop_resource_tracker() -> None:
    """Stop and reap ``multiprocessing``'s resource tracker, if started.

    The process backend's shared-memory segments start the tracker as a
    child of this process; left running it would outlive the benchmark
    by a moment after exit, unreaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME or --all")
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    names = list(WORKLOADS) if args.all else [args.workload]

    try:
        for name in names:
            _report(name, run_workload(name, args.seed, args.seconds,
                                       bool(args.trace)), args.trace)
    finally:
        _stop_resource_tracker()
    return 0


def _report(name: str, outcome: dict, trace: int) -> None:
    result = outcome["result"]
    failed_frac = result["failed"] / result["attempted"]
    print(f"== {name} (trace {trace}): correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={failed_frac:g}")
    for problem in outcome["record"]["problems"]:
        print(f"   problem: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:28s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(outcome["record"]))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
