"""The library imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "limitper"


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_absolute_import_is_from_the_standard_library(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    outside = sorted(n for n in names if n.split(".")[0] not in sys.stdlib_module_names)
    assert outside == []
