"""Self-tests of the benchmark: attribution, wrapper hygiene, exit codes.

    python3 -m pytest perfbench/tests -q

The traced full-size runs take about a minute on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import detect
import layers
from measure import ROOT, labels_digest
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def small():
    from repro.graph.generators import planted_partition

    return (planted_partition(40, 50, 0.3, 0.002, seed=1),
            WORKLOADS["planted-100k"].config())


def test_planted_delay_moves_only_its_layer(small):
    graph, config = small
    delay = 0.05
    base = layers.LayerTrace()
    base_result, _ = detect.detect_once(graph, config, base)
    slowed = layers.LayerTrace(delay={"rebuild": delay})
    slowed_result, _ = detect.detect_once(graph, config, slowed)

    assert (labels_digest(base_result.communities)
            == labels_digest(slowed_result.communities))
    rebuilds = base_result.num_phases  # one coarsen per phase
    injected = delay * rebuilds
    assert rebuilds >= 2
    moved = slowed.self_s["rebuild"] - base.self_s["rebuild"]
    assert injected <= moved < injected + 0.5 * delay
    for layer in layers.DETECT_LAYERS:
        if layer != "rebuild":
            change = abs(slowed.self_s[layer] - base.self_s[layer])
            assert change < 0.2 * injected, layer


def test_wrappers_removed_even_when_the_run_raises(small):
    graph, _ = small
    targets = layers.detection_targets()
    before = layers.current(targets)
    with pytest.raises(AttributeError):
        detect.detect_once(graph, "not a config", layers.LayerTrace(),
                           targets)
    assert layers.current(targets) == before
    calls = layers.calls
    detect.detect_once(graph, small[1])
    assert layers.calls == calls


@pytest.mark.parametrize("name", ["planted-100k", "rmat-131k"])
def test_traced_run_attributes_the_whole_wall_clock(name):
    # detect.run checks, per traced request, that the layer self times
    # plus driver.self_s sum to the traced wall clock, that traced labels
    # equal untraced ones, and that no wrapper ran in an untraced request.
    workload = WORKLOADS[name]
    summary = detect.run(workload, workload.default_seed, 0.0, trace=True)
    assert summary["problems"] == []
    metrics = summary["metrics"]
    covered = sum(metrics[layers.TIME_METRICS[layer]]
                  for layer in layers.DETECT_LAYERS)
    share = metrics["rebuild.s"] / covered
    if name == "rmat-131k":
        assert share >= 0.20
    else:
        assert share <= 0.10
    assert metrics["coloring.s"] == 0.0
    assert metrics["phase.iterations"] == metrics["sweep.calls"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _group_members(pgid: int) -> list[str]:
    """Pids (live or zombie) whose process group is ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            found.append(entry)
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_process_backend_run_leaves_no_process_behind():
    # Shared memory starts multiprocessing's resource tracker as a child
    # of the benchmark; it must be stopped and reaped before exit.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "rmat-65k-vfcolor",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert json.loads(out.splitlines()[-1])["correct"]
    assert _group_members(proc.pid) == []
