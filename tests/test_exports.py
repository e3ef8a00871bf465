"""Every name the package exports has a user outside the tests: code in a
package module other than ``__init__``, a bench script, or the README. A
helper that only the tests call belongs under ``tests/``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autocomplexity"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _used_names(paths) -> set[str]:
    """The names and attributes that the code of ``paths`` reads: not a
    definition's own name, and nothing in a docstring or a comment."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_user_outside_the_tests():
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = _used_names([*modules, *(ROOT / "bench").glob("*.py")])
    readme = (ROOT / "README.md").read_text()
    exported = _exported()
    unused = [
        name
        for name in exported
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert len(exported) > 40  # the parse still finds the exports
    assert not unused, unused
