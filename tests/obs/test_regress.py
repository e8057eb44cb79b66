"""Perf-regression gate: comparison semantics and recipe cross-checks."""

import importlib.util
import json
import pathlib

import pytest

from repro.obs.regress import (
    DEFAULT_Q_TOL,
    DEFAULT_TOL_RATIO,
    DEFAULT_TOL_SECONDS,
    BATCH_GRAPH_SPEC,
    BATCH_NUM_GRAPHS,
    PHASE_GRAPHS,
    PHASE_THRESHOLD,
    compare_records,
    load_records,
    provenance,
    record_key,
    render_comparisons,
    rerun_batch_records,
    run_regression,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


def kernel_record(graph="planted-50k", kernel="optimized", seconds=1.0,
                  q=0.9, **extra):
    return {"graph": graph, "kernel": kernel, "seconds": seconds, "Q": q,
            "commit": "aaaa", "date": "2026-01-01", "backend": "numpy",
            **extra}


def batch_record(mode="batched", seconds=0.1, q_mean=0.5, **extra):
    return {"mode": mode, "seconds": seconds, "Q_mean": q_mean,
            "commit": "aaaa", "date": "2026-01-01", "backend": "numpy",
            **extra}


class TestRecordKey:
    def test_kernel_and_batch_keys(self):
        assert record_key(kernel_record()) == "kernels:planted-50k/optimized"
        assert record_key(batch_record()) == "batch:batched"
        assert record_key({"whatever": 1}) is None


class TestLoadRecords:
    def test_loads_committed_bench_files(self):
        kernels = load_records(REPO / "BENCH_kernels.json")
        batch = load_records(REPO / "BENCH_batch.json")
        assert kernels and batch
        assert all(record_key(r) for r in kernels + batch)

    def test_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_records(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_records(path)


class TestCompareRecords:
    def test_identical_records_pass(self):
        committed = [kernel_record(), batch_record()]
        comparisons, notes = compare_records(committed,
                                             json.loads(json.dumps(committed)))
        assert comparisons and all(c.ok for c in comparisons)
        assert notes == []

    def test_synthetically_slowed_record_fails(self):
        committed = [kernel_record(seconds=1.0)]
        slowed = [kernel_record(seconds=10.0)]
        comparisons, _ = compare_records(committed, slowed)
        seconds = [c for c in comparisons if c.metric == "seconds"]
        assert seconds and not seconds[0].ok

    def test_within_tolerance_passes(self):
        committed = [kernel_record(seconds=1.0)]
        # limit = 1.0 + max(1.0*0.25, 0.25) = 1.25
        ok_fresh = [kernel_record(seconds=1.2)]
        comparisons, _ = compare_records(committed, ok_fresh)
        assert all(c.ok for c in comparisons)

    def test_absolute_floor_protects_tiny_records(self):
        # 10ms -> 3x slower but inside the 0.25s shared-runner floor.
        committed = [batch_record(seconds=0.010)]
        fresh = [batch_record(seconds=0.030)]
        comparisons, _ = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)

    def test_quality_drop_fails(self):
        committed = [kernel_record(q=0.90)]
        fresh = [kernel_record(q=0.90 - 2 * DEFAULT_Q_TOL)]
        comparisons, _ = compare_records(committed, fresh)
        q = [c for c in comparisons if c.metric == "Q"]
        assert q and not q[0].ok

    def test_quality_gain_passes(self):
        committed = [kernel_record(q=0.90)]
        fresh = [kernel_record(q=0.95)]
        comparisons, _ = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)

    def test_backend_mismatch_is_skipped_with_note(self):
        committed = [kernel_record(backend="numpy", seconds=1.0)]
        fresh = [kernel_record(backend="cupy", seconds=50.0)]
        comparisons, notes = compare_records(committed, fresh)
        assert comparisons == []
        assert any("backend mismatch" in n for n in notes)

    def test_commit_mismatch_is_note_not_failure(self):
        committed = [kernel_record(commit="aaaa")]
        fresh = [kernel_record(commit="bbbb")]
        comparisons, notes = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)
        assert any("provenance" in n for n in notes)

    def test_unmatched_records_are_notes(self):
        committed = [kernel_record(kernel="seed"),
                     kernel_record(kernel="optimized")]
        fresh = [kernel_record(kernel="optimized"),
                 batch_record()]
        comparisons, notes = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)
        assert any("no fresh record" in n for n in notes)
        assert any("no committed baseline" in n for n in notes)

    def test_custom_tolerances(self):
        committed = [kernel_record(seconds=1.0)]
        fresh = [kernel_record(seconds=1.5)]
        strict, _ = compare_records(committed, fresh, tol_ratio=0.1,
                                    tol_seconds=0.0)
        lax, _ = compare_records(committed, fresh, tol_ratio=1.0,
                                 tol_seconds=0.0)
        assert not all(c.ok for c in strict)
        assert all(c.ok for c in lax)


class TestGate:
    def test_run_regression_pass_and_fail(self):
        committed = [kernel_record(), batch_record()]
        ok, report = run_regression(committed,
                                    json.loads(json.dumps(committed)))
        assert ok
        assert report.splitlines()[-1].startswith("PASS")
        bad = json.loads(json.dumps(committed))
        bad[0]["seconds"] = 99.0
        ok, report = run_regression(committed, bad)
        assert not ok
        assert report.splitlines()[-1].startswith("REGRESSION")
        assert "FAIL" in report

    def test_committed_bench_files_pass_against_themselves(self):
        committed = (load_records(REPO / "BENCH_kernels.json")
                     + load_records(REPO / "BENCH_batch.json"))
        ok, report = run_regression(committed,
                                    json.loads(json.dumps(committed)))
        assert ok, report


class TestRecipeCrossCheck:
    """The graph recipes duplicated from benchmarks/ must never drift."""

    @staticmethod
    def _load_bench(name):
        # benchmarks/ is a script directory, not a package; bench_batch
        # imports bench_kernels as a sibling, so put the dir on the path.
        import sys

        bench_dir = str(REPO / "benchmarks")
        sys.path.insert(0, bench_dir)
        try:
            path = REPO / "benchmarks" / f"{name}.py"
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        finally:
            sys.path.remove(bench_dir)

    def test_phase_graphs_match_bench_kernels(self):
        bench = self._load_bench("bench_kernels")
        assert PHASE_GRAPHS == bench.PHASE_GRAPHS
        assert PHASE_THRESHOLD == bench.PHASE_THRESHOLD

    def test_bench_scripts_share_the_provenance_helper(self):
        # perfbench loads bench_kernels by path and calls its provenance;
        # committed BENCH_*.json records carry the same stamp.
        assert self._load_bench("bench_kernels").provenance is provenance
        assert self._load_bench("bench_batch").provenance is provenance
        stamp = provenance(REPO)
        assert set(stamp) == {"commit", "date", "backend"}
        assert stamp["backend"] == "numpy"

    def test_batch_recipe_matches_bench_batch(self):
        import numpy as np

        from repro.graph.generators import planted_partition

        bench = self._load_bench("bench_batch")
        assert BATCH_NUM_GRAPHS == bench.DEFAULT_NUM_GRAPHS
        # bench_batch hard-codes its fleet recipe inside build_graphs;
        # byte-compare the graphs it builds against BATCH_GRAPH_SPEC.
        theirs = bench.build_graphs(2, seed=5)
        blocks, block_size, p_in, p_out = BATCH_GRAPH_SPEC
        ours = [planted_partition(blocks, block_size, p_in, p_out,
                                  seed=5 + i) for i in range(2)]
        for a, b in zip(theirs, ours):
            assert a.num_vertices == b.num_vertices
            assert a.num_edges == b.num_edges
            np.testing.assert_array_equal(a.indptr, b.indptr)
            np.testing.assert_array_equal(a.indices, b.indices)


class TestRerun:
    def test_rerun_batch_records_have_bench_shape(self):
        records = rerun_batch_records(num_graphs=3, repeats=1,
                                      log=lambda *_: None)
        assert [r["mode"] for r in records] == ["per-graph-loop", "batched"]
        for record in records:
            assert record_key(record) is not None
            assert {"seconds", "Q_mean", "commit", "date",
                    "backend"} <= set(record)
        assert records[1]["speedup"] == pytest.approx(
            records[0]["seconds"] / records[1]["seconds"])


class TestRender:
    def test_render_marks_failures(self):
        committed = [kernel_record(seconds=1.0)]
        fresh = [kernel_record(seconds=50.0)]
        comparisons, notes = compare_records(committed, fresh)
        text = render_comparisons(comparisons, notes)
        assert "FAIL kernels:planted-50k/optimized seconds" in text
        assert text.splitlines()[-1].startswith("REGRESSION")
