"""Unit tests for the shared utility layer."""

import time

import numpy as np
import pytest

from repro.utils.arrays import (
    check_permutation,
    renumber_labels,
    run_boundaries,
    segment_max,
    segment_sums,
    unique_sorted,
)
from repro.utils.errors import (
    GraphFormatError,
    GraphStructureError,
    ReproError,
    ValidationError,
)
from repro.utils.rng import as_rng, spawn
from repro.utils.timing import StepTimer, Timer


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ValidationError, ReproError)
        assert issubclass(ValidationError, ValueError)
        assert issubclass(GraphStructureError, ValidationError)
        assert issubclass(GraphFormatError, ReproError)

    def test_catchable_as_valueerror(self):
        with pytest.raises(ValueError):
            raise GraphStructureError("boom")


class TestArrays:
    def test_run_boundaries(self):
        out = run_boundaries(np.array([3, 3, 5, 9, 9, 9]))
        assert out.tolist() == [0, 2, 3]

    def test_run_boundaries_empty_and_single(self):
        assert run_boundaries(np.array([])).tolist() == []
        assert run_boundaries(np.array([7])).tolist() == [0]

    def test_run_boundaries_int64_for_every_shape(self):
        cases = {(): [], (7,): [0], (1, 1, 2, 2, 2, 5): [0, 2, 5],
                 (3, 3, 3): [0]}
        for keys, want in cases.items():
            got = run_boundaries(np.asarray(keys, dtype=np.int64))
            assert got.tolist() == want, keys
            assert got.dtype == np.int64, keys

    @pytest.mark.parametrize("keys", [
        [], [7], [4, 4, 4, 4], [-3, 5, -3, 0, -9, 5, 2**40, -(2**40)],
    ], ids=["empty", "single", "all-equal", "negative"])
    def test_unique_sorted_matches_np_unique(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = unique_sorted(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_unique_sorted_random_int64(self):
        keys = np.random.default_rng(5).integers(-50, 50, size=1000)
        np.testing.assert_array_equal(unique_sorted(keys), np.unique(keys))

    def test_segment_sums(self):
        keys = np.array([1, 1, 2, 2, 2])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        starts = run_boundaries(keys)
        assert segment_sums(vals, starts).tolist() == [3.0, 12.0]

    def test_segment_sums_empty(self):
        assert segment_sums(np.array([]), np.array([], dtype=np.int64)).size == 0

    def test_segment_max(self):
        out = segment_max(np.array([1.0, 5.0, 2.0]), np.array([0, 1, 0]), 3,
                          fill=-np.inf)
        assert out[0] == 2.0 and out[1] == 5.0 and out[2] == -np.inf

    def test_check_permutation(self):
        check_permutation(np.array([2, 0, 1]), 3)
        with pytest.raises(ValidationError):
            check_permutation(np.array([0, 0, 1]), 3)
        with pytest.raises(ValidationError):
            check_permutation(np.array([0, 1]), 3)
        with pytest.raises(ValidationError):
            check_permutation(np.array([0, 1, 5]), 3)

    def test_renumber_labels_preserves_order(self):
        dense, k = renumber_labels(np.array([9, 3, 9, 7]))
        assert k == 3
        assert dense.tolist() == [2, 0, 2, 1]

    def test_renumber_empty(self):
        dense, k = renumber_labels(np.array([], dtype=np.int64))
        assert k == 0 and dense.size == 0


class TestRng:
    def test_int_seed_deterministic(self):
        assert as_rng(5).integers(0, 100) == as_rng(5).integers(0, 100)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_independent_and_deterministic(self):
        children1 = spawn(as_rng(1), 3)
        children2 = spawn(as_rng(1), 3)
        draws1 = [c.integers(0, 10**9) for c in children1]
        draws2 = [c.integers(0, 10**9) for c in children2]
        assert draws1 == draws2
        assert len(set(draws1)) == 3  # overwhelmingly likely distinct


class TestTimers:
    def test_timer_context(self):
        with Timer() as t:
            time.sleep(0.001)
        assert t.elapsed >= 0.001

    def test_timer_accumulates(self):
        t = Timer()
        t.start(); t.stop()
        first = t.elapsed
        t.start(); t.stop()
        assert t.elapsed >= first

    def test_timer_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_step_timer(self):
        st = StepTimer()
        with st.step("a"):
            pass
        st.add("b", 2.0)
        assert st.get("a") >= 0.0
        assert st.get("b") == 2.0
        assert st.get("missing") == 0.0
        assert st.total() == pytest.approx(st.get("a") + 2.0)

    def test_step_timer_merge(self):
        a = StepTimer()
        a.add("x", 1.0)
        b = StepTimer()
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.get("x") == 3.0 and a.get("y") == 3.0
