"""Every geoeval name the benchmark in `geobench/` calls must exist.

Some of them (`metrics.geocoding_errors`, `stats.paired_t_test`) have no
caller in `src/`, so a dead-code cleanup would break the benchmark, and
its own smoke test runs outside this suite. The benchmark's files are
parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

GEOBENCH = Path(__file__).resolve().parent.parent / "geobench"


def _traced_functions() -> set[tuple[str, str]]:
    tree = ast.parse((GEOBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets
        ):
            return {(module, name) for module, name, _hot in ast.literal_eval(node.value)}
    raise AssertionError("geobench/tracer.py defines no TRACED_FUNCTIONS")


def _pass_references() -> set[tuple[str, str]]:
    """Every `g.<module>.<name>` in geobench/passes.py (`g` is the geoeval package)."""
    tree = ast.parse((GEOBENCH / "passes.py").read_text(encoding="utf-8"))
    return {
        (node.value.attr, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "g"
    }


BENCHMARK_NAMES = sorted(_traced_functions() | _pass_references())


def test_benchmark_names_are_found():
    # Guards the parsing itself: an empty list would pass every case below.
    assert len(_traced_functions()) >= 20 and len(_pass_references()) >= 20


@pytest.mark.parametrize("module, name", BENCHMARK_NAMES, ids=[f"{m}.{n}" for m, n in BENCHMARK_NAMES])
def test_benchmark_name_exists(module, name):
    assert hasattr(importlib.import_module(f"geoeval.{module}"), name)
