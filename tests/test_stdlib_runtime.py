"""The geoeval runtime imports nothing outside the standard library.

Every module under src/geoeval is parsed, not imported, so an import
inside a function that no test reaches is checked as well. The scoring
module is checked not to import the baseline tagger and resolver either.
"""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "geoeval")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) for every absolute import in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_absolute_imports_found_at_any_depth():
    source = "import os.path\nfrom . import corpus\ndef f():\n    from numpy import array\n"
    assert absolute_imports(source) == [(1, "os"), (4, "numpy")]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_the_standard_library(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        imports = absolute_imports(fh.read())
    outside = [(line, name) for line, name in imports if name not in sys.stdlib_module_names]
    assert outside == [], f"{module} imports outside the standard library: {outside}"


@pytest.mark.parametrize("module", MODULES)
def test_module_does_not_import_pickle(module):
    # The gazetteer cache is plain columns, so loading one can run no code.
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        imports = absolute_imports(fh.read())
    assert [line for line, name in imports if name == "pickle"] == [], f"{module} imports pickle"


def test_scoring_does_not_import_the_baseline_system():
    # metrics scores any system's predictions, so it needs neither the baseline tagger nor its resolver.
    with open(os.path.join(SRC, "metrics.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            relative |= {node.module} if node.module else {alias.name for alias in node.names}
    assert relative and not relative & {"resolver", "tagger"}
