"""Run the doctest examples embedded in public docstrings.

Docstring examples are documentation with an expiry date unless executed;
this module keeps them honest.  Modules are resolved by name with
importlib because several packages re-export same-named callables (e.g.
``repro.core.modularity`` the function shadows the submodule attribute).
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.bench.ascii_plot",
    "repro.coloring._first_fit",
    "repro.core.batch",
    "repro.core.modularity",
    "repro.dynamic.dynamic_graph",
    "repro.graph.batch",
    "repro.graph.build",
    "repro.lint.sanitizer",
    "repro.metrics.pairs",
    "repro.parallel.atomic",
    "repro.robust.budget",
    "repro.utils.arrays",
    "repro.utils.rng",
    "repro.utils.timing",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{name}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{name} has no doctest examples"
