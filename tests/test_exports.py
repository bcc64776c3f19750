"""Every name the package exports has a reader beyond the tests.

A name is read when ``src/`` loads it outside its own definition and the
export list, when ``scripts/`` loads it, or when README's library tour does.
A name with no such reader stays only if ``KEEP`` gives the reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "limitper"

KEEP = {
    "is_generator": "ROADMAP item 7: the hull output prints its witness",
    "periodize": "ROADMAP item 10: the coset-mean approximant beside the centred one",
}


def _reads(tree, skip=None):
    """Names loaded in ``tree``, bare or as ``lp.name``, outside the def or class ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                names.add(child.id)
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and child.value.id in ("lp", "limitper")):
                names.add(child.attr)
            stack.append(child)
    return names


def test_every_export_is_read_outside_the_tests_or_kept_for_a_reason():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    modules = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")
               if path.name != "__init__.py"]
    readers = set()
    for path in (ROOT / "scripts").glob("*.py"):
        readers |= _reads(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        readers |= _reads(ast.parse(block))
    unread = [name for name in exported if name not in readers
              and not any(name in _reads(tree, skip=name) for tree in modules)]
    assert sorted(unread) == sorted(KEEP)
